import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from subsing import bernstein as bf
from subsing import integrate as itg
from subsing import moments as mo
from subsing import spde
from subsing import subordinator as sub
from subsing.cli import main
from subsing.errors import CapabilityError, DomainError
from subsing.rng import stream


def test_time_grid_basic():
    g = sub.time_grid(1.0, 0.25)
    assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        sub.time_grid(1.0, 2.0)


@pytest.mark.parametrize("t_start, t_end, ratio", [
    (1.0, 10.0, math.nan), (1.0, math.inf, 1.01), (1.0, 10.0, math.inf),
    (1.0, math.nan, 1.01), (math.nan, 10.0, 1.01), (1.0, 10.0, 1.0),
], ids=["ratio-nan", "t_end-inf", "ratio-inf", "t_end-nan", "t_start-nan",
        "ratio-one"])
def test_geometric_grid_refuses_a_non_finite_or_unit_input(t_start, t_end, ratio):
    # each is a DomainError, not a ValueError or OverflowError from the node
    # count; ratio = inf would give the one node t_start, short of t_end
    with pytest.raises(DomainError):
        sub.geometric_grid(t_start, t_end, ratio)


def test_geometric_grid_reaches_its_end():
    g = sub.geometric_grid(1.0, 10.0, 1.5)
    assert g[0] == 1.0 and g[-2] < 10.0 <= g[-1]
    assert np.allclose(g[1:] / g[:-1], 1.5)


def test_power_graded_grid_shape():
    g = sub.power_graded_grid(2.0, 0.5, n_nodes=500)
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.all(np.diff(g) > 0)
    # spacing grows toward the right end
    d = np.diff(g[1:])
    assert d[-1] > d[0]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_stable_paths_monotone_and_certified(alpha):
    inc = sub.grid_increments(bf.stable(alpha), sub.time_grid(1.0, 0.01),
                              np.random.default_rng(1))[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0)
    # Laplace certification at the path level: e^{-r S_1} vs e^{-phi(r)}
    rng = stream(9, 0)
    inc = sub.grid_increments(bf.stable(alpha), np.array([0.0, 1.0]), rng, 100_000)
    s1 = inc[:, 0]
    for r in (0.5, 1.0, 2.0):
        vals = np.exp(-r * s1)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(-(r ** alpha))) <= 3 * se


def test_stable_self_similarity_ks():
    # S_t  =d  t^(1/alpha) S_1, two-sample KS with Bonferroni correction
    alpha, n = 0.6, 20_000
    rng = stream(7, 0)
    ts = [0.25, 4.0]
    level = 0.01 / len(ts)
    s1 = sub.grid_increments(bf.stable(alpha), np.array([0.0, 1.0]), rng, n)[:, 0]
    for t in ts:
        st_ = sub.grid_increments(bf.stable(alpha), np.array([0.0, t]), rng, n)[:, 0]
        res = stats.ks_2samp(st_, t ** (1 / alpha) * s1)
        assert res.pvalue > level


def test_stable_independent_increments():
    rng = stream(21, 0)
    inc = sub.grid_increments(bf.stable(0.5), np.array([0.0, 0.5, 1.0]), rng, 50_000)
    # correlate bounded transforms; raw stable increments have no variance
    a = np.exp(-inc[:, 0])
    b = np.exp(-inc[:, 1])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(len(a))


def test_log_half_sin_matches_numpy_sin():
    # log sin x from the half-angle tangent against numpy's sin, over every
    # U that uniform(0, pi) can return: a dense grid, the smallest U and the
    # largest, within 4 ulp of the log, or of 1 where the log is near 0
    tiny = math.pi * 2.0 ** -53
    k = np.arange(1.0, 65.0)
    x = np.concatenate((np.linspace(tiny, math.pi, 1_000_000, endpoint=False),
                        tiny * k, math.pi * (1.0 - k * 2.0 ** -53),
                        [np.nextafter(math.pi, 0.0)]))
    got = sub._log_half_sin(x, 1.0, np.empty_like(x), np.empty_like(x))
    got += math.log(2.0)
    ref = np.log(np.sin(x))
    err = np.abs(got - ref) / np.spacing(np.maximum(np.abs(ref), 1.0))
    assert err.max() <= 4, (err.max(), x[err.argmax()])


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7, 0.95])
def test_kanter_in_logs_matches_the_sine_product(alpha):
    # the same (U, E) draws through Kanter's product of numpy sines
    n, a = 200_000, alpha
    rng = np.random.default_rng(13)
    u = rng.uniform(0.0, math.pi, n)
    e = rng.standard_exponential(n)
    ref = (np.sin(a * u) / np.sin(u) ** (1.0 / a)
           * (np.sin((1.0 - a) * u) / e) ** ((1.0 - a) / a))
    got = sub.grid_increments(bf.stable(alpha), [0.0, 1.0],
                              np.random.default_rng(13), n)[:, 0]
    assert np.abs(got / ref - 1.0).max() <= 1e-13


def test_levy_variate_ks():
    # at alpha = 1/2, V = 1/(2 N^2) and P(V <= x) = erfc(1/(2 sqrt(x)))
    v = sub.grid_increments(bf.stable(0.5), [0.0, 1.0], stream(23, 0), 20_000)[:, 0]
    res = stats.kstest(v, lambda x: special.erfc(0.5 / np.sqrt(x)))
    assert res.pvalue > 0.01


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_stable_index_outside_the_unit_interval_is_refused(alpha):
    # the sampler checks the index itself, not only bernstein.stable
    phi = dataclasses.replace(bf.stable(0.5), params=(alpha,))
    with pytest.raises(DomainError):
        sub.grid_sampler(phi, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        sub.grid_increments(phi, np.array([0.0, 1.0]), np.random.default_rng(0), 4)


@pytest.mark.parametrize("seed", [0, 7, 19])
@pytest.mark.parametrize("times", [np.linspace(0, 2, 9), np.linspace(0, 1, 129),
                                   np.linspace(0, 1, 33) ** 1.5,
                                   np.array([0.0, 1e-9, 0.5, 3.0])],
                         ids=["uniform", "fine", "graded", "tiny-cell"])
def test_gamma_increments_are_the_unit_scale_gamma_draws(times, seed):
    # standard_gamma(shape) is gamma(shape, scale=1.0) value for value
    for n_paths in (1, 5, 312):
        got = sub.grid_increments(bf.gamma_exponent(), times, stream(seed, 0), n_paths)
        shape = np.broadcast_to(np.diff(times), (n_paths, len(times) - 1))
        assert np.array_equal(got, stream(seed, 0).gamma(shape=shape, scale=1.0))


def test_gamma_increments_match_transform():
    rng = stream(3, 0)
    inc = sub.grid_increments(bf.gamma_exponent(), np.linspace(0, 2, 9), rng, 50_000)
    s2 = inc.sum(axis=1)
    vals = np.exp(-s2)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.25) <= 3 * se     # (1+1)^-2
    # mean of S_2 is 2 (unit mean rate)
    se_m = s2.std() / math.sqrt(len(s2))
    assert abs(s2.mean() - 2.0) <= 3 * se_m


def test_determinism_bit_identical():
    times = sub.time_grid(1.0, 0.01)
    a = sub.grid_increments(bf.stable(0.5), times, np.random.default_rng(42))
    b = sub.grid_increments(bf.stable(0.5), times, np.random.default_rng(42))
    assert np.array_equal(a, b)
    # tilted draws redraw their rejections from the same stream
    phi, split = bf.tempered_stable(0.3, 2.0), np.array([0.0, 0.5, 4.0])
    a = sub.grid_increments(phi, split, np.random.default_rng(5), 50)
    b = sub.grid_increments(phi, split, np.random.default_rng(5), 50)
    assert np.array_equal(a, b)


def test_laplace_certification_all_simulable():
    # every simulable exponent reproduces exp(-T phi(r)) within 3 SE
    times = np.linspace(0.0, 1.0, 17)
    cases = [(bf.stable(0.5), 0), (bf.gamma_exponent(), 1),
             (bf.tempered_stable(0.5, 1.0), 2), (bf.drift_only(0.7), 3)]
    for phi, k in cases:
        rng = stream(41, k)
        inc = sub.grid_increments(phi, times, rng, 100_000)
        s1 = inc.sum(axis=1)
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(-r * s1)
            se = vals.std() / math.sqrt(len(vals))
            err = abs(vals.mean() - math.exp(-phi(r)))
            assert err <= max(3 * se, 1e-12), (phi.name, r, err, se)


def _draw(phi_id):
    return lambda times: sub.grid_increments(bf.parse_phi(phi_id), times,
                                             np.random.default_rng(0), 2)


def _one_mode():
    # one mode with the inverse-diffusion constants the controller probes
    return spde.GalerkinSystem(1, np.array([1.0]), spde.zero_drift, 0.0, 0.0,
                               spde.constant_diagonal_q([1.0]), np.array([1.0]),
                               a4_constants=(1.0, 0.25))


ST5, ROOT = bf.stable(0.5), itg.power_singular(0.5)


@pytest.mark.parametrize("consume, times", [
    (_draw("stable:0.5"), [0.0, math.nan, 1.0]),
    (_draw("gamma"), [0.0, math.inf]),
    (_draw("tempered:0.5,1"), [-math.inf, 0.0, 1.0]),
    (_draw("drift:1"), [0.0, 1.0, math.nan]),
    (lambda t: itg.cell_means(ROOT, t), [0.0, math.nan, 1.0]),
    (lambda t: mo.grid_bias(ST5, ROOT, t), [0.0, math.nan, 1.0]),
    (lambda t: mo.mc_integral_moment(ST5, 0.25, ROOT, t, 100, 1),
     [0.0, math.nan, 1.0]),
    (lambda t: mo.integral_summary(ST5, ROOT, t, 100, 1), [0.0, 0.5, math.inf]),
    (lambda t: spde.advance(_one_mode(), t, np.ones((1, 2)), np.zeros((1, 2, 1)),
                            path="state"), [0.0, math.nan, 1.0]),
    (lambda t: spde.conditional_maximal_check(_one_mode(), t, np.ones(2), 10, 1),
     [0.0, 0.5, math.inf]),
    (lambda t: spde.synthesize_null_controller(_one_mode(), t, [0.0, 0.5, 1.0]),
     [0.0, math.nan, 1.0]),
], ids=["stable-nan", "gamma-inf", "tempered-minus-inf", "drift-nan-end",
        "cell_means", "grid_bias", "mc_integral_moment", "integral_summary",
        "advance", "conditional_maximal_check", "synthesize_null_controller"])
def test_non_finite_grid_node_is_refused(consume, times):
    # a NaN width passes a test of dt <= 0, and an inf node gives an inf
    # width; either would draw or weigh NaN or inf increments.  Every
    # consumer of a grid takes its widths from grid_widths, so each refuses
    with pytest.raises(DomainError, match="finite"):
        consume(times)


def test_general_requires_jump_structure():
    # a driver without an exact grid sampler is refused, not approximated
    times = np.array([0.0, 0.5, 1.0])
    with pytest.raises(CapabilityError):
        sub.grid_increments(bf.parse_phi("ratio:0.5"), times, np.random.default_rng(0), 1)
    for phi_id in ("stable:0.5", "gamma", "tempered:0.5,1", "drift:1"):
        with pytest.raises(DomainError):
            sub.grid_increments(bf.parse_phi(phi_id), times[::-1],
                                np.random.default_rng(0), 1)


@pytest.mark.parametrize("alpha, times, batch", [
    (0.3, [0.0, 4.0], sub.TILT_BATCH),
    (0.3, [0.0, 4.0], 100_000),
    (0.3, [0.0, 0.01, 0.3, 4.0], sub.TILT_BATCH),
    (0.3, np.concatenate(([0.0], np.geomspace(1e-3, 4.0, 64))), sub.TILT_BATCH),
    (0.5, [0.0, 4.0], sub.TILT_BATCH),
    (0.5, [0.0, 0.01, 0.3, 4.0], sub.TILT_BATCH),
], ids=["one-cell", "one-cell-batched", "three-cells", "64-cells",
        "one-cell-inverse-gaussian", "three-cells-inverse-gaussian"])
def test_tempered_tilting_is_exact(alpha, times, batch, monkeypatch):
    # under tempered:alpha,2 a cell of width h holds h 2^alpha /
    # TILT_PIECE_MASS pieces, up to 20 at alpha = 0.3; at alpha = 1/2 the
    # same wide cells, up to 23 pieces' worth, are single inverse Gaussian
    # variates: every cell and the whole path must match exp(-h phi(r)),
    # each z-test at the 3-sigma level divided among them; a batch of
    # 100,000 draws the 19 pieces after the first in 5 passes
    monkeypatch.setattr(sub, "TILT_BATCH", batch)
    phi, times = bf.tempered_stable(alpha, 2.0), np.asarray(times)
    h = np.diff(times)
    pieces = np.ceil(h * 2.0 ** alpha / sub.TILT_PIECE_MASS)
    assert pieces.max() > 1 and (h.size == 1 or pieces.min() == 1)
    r = np.array([0.5, 1.0, 2.0])
    exact = np.exp(-np.outer(phi.fn(r), np.append(h, times[-1])))
    n, chunks, total, sq = 25_000, 8, 0.0, 0.0
    for k in range(chunks):
        inc = sub.grid_increments(phi, times, stream(61, k), n)
        vals = np.exp(-np.multiply.outer(
            r, np.column_stack([inc, inc.sum(axis=1)])))
        total, sq = total + vals.sum(axis=1), sq + (vals * vals).sum(axis=1)
    mean = total / (chunks * n)
    se = np.sqrt((sq / (chunks * n) - mean ** 2) / (chunks * n))
    z = (mean - exact) / se
    assert np.abs(z).max() <= stats.norm.isf(0.00135 / z.size), z


@pytest.mark.parametrize("lam", [0.01, 1.0, 1e4])
def test_tempered_inverse_gaussian_is_exact(lam):
    # cells from h = 1e-6 to 3; at r = (c/h + sqrt(lam))^2 - lam a cell has
    # h phi(r) = c, so every cell and the whole path are z-tested where
    # exp(-r X) is spread out, and E S_T against T / (2 sqrt(lam)); each
    # z-test at the 3-sigma level divided among them
    phi = bf.tempered_stable(0.5, lam)
    times = np.concatenate(([0.0], np.cumsum(np.geomspace(1e-6, 3.0, 12))))
    h = np.append(np.diff(times), times[-1])
    r = (np.multiply.outer([0.5, 1.0, 2.0], 1.0 / h) + math.sqrt(lam)) ** 2 - lam
    exact = np.append(np.exp(-h * phi.fn(r)).ravel(), times[-1] / (2 * math.sqrt(lam)))
    n, chunks, total, sq = 25_000, 8, 0.0, 0.0
    for k in range(chunks):
        inc = sub.grid_increments(phi, times, stream(62, k), n)
        paths = np.column_stack([inc, inc.sum(axis=1)])
        vals = np.column_stack([np.exp(-r * paths[:, None, :]).reshape(n, -1),
                                paths[:, -1]])
        total, sq = total + vals.sum(axis=0), sq + (vals * vals).sum(axis=0)
    mean = total / (chunks * n)
    se = np.sqrt((sq / (chunks * n) - mean ** 2) / (chunks * n))
    z = (mean - exact) / se
    assert np.abs(z).max() <= stats.norm.isf(0.00135 / z.size), z


def test_tempered_inverse_gaussian_draws_one_normal_and_one_uniform(monkeypatch):
    # alpha = 1/2 takes no tilting pass: one standard_normal and one random
    # call, each of shape (n_paths, K), and no other draw
    class Spy:
        def __init__(self, rng):
            self.rng, self.calls = rng, []

        def standard_normal(self, size):
            self.calls.append(("standard_normal", size))
            return self.rng.standard_normal(size)

        def random(self, size=None, *, out=None):
            self.calls.append(("random", size if out is None else out.shape))
            return self.rng.random(size, out=out)

    def no_tilting(*args, **kwargs):
        raise AssertionError("alpha = 1/2 reached the tilting sampler")

    monkeypatch.setattr(sub, "_tilted_stable", no_tilting)
    spy = Spy(stream(3, 0))
    inc = sub.grid_increments(bf.tempered_stable(0.5, 1e3), [0.0, 0.5, 4.0], spy, 7)
    assert spy.calls == [("standard_normal", (7, 2)), ("random", (7, 2))]
    assert inc.shape == (7, 2) and np.all(inc > 0)


SAMPLED = ["stable:0.3", "stable:0.5", "gamma", "tempered:0.5,1",
           "tempered:0.3,2", "drift:1"]


@pytest.mark.parametrize("phi", SAMPLED)
def test_draws_of_one_sampler_are_fresh(phi):
    # a draw is never a work array: the next draw on the same thread leaves
    # it as it was and shares no memory with it, and both are the draws of
    # grid_increments from the same streams
    times = np.linspace(0.0, 1.0, 9)
    draw = sub.grid_sampler(bf.parse_phi(phi), times)
    a = draw(stream(72, 0), 16)
    kept = a.copy()
    b = draw(stream(72, 1), 16)
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, kept)
    for k, got in enumerate((a, b)):
        want = sub.grid_increments(bf.parse_phi(phi), times, stream(72, k), 16)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("phi", SAMPLED)
def test_one_sampler_drawn_from_two_threads(phi):
    # each thread draws into work arrays of its own: eight draws made two
    # at a time on two threads equal the same draws made one after another
    times = np.linspace(0.0, 1.0, 65)
    draw = sub.grid_sampler(bf.parse_phi(phi), times)
    alone = [draw(stream(71, k), 500) for k in range(8)]
    start = threading.Barrier(2)

    def run(ks):
        start.wait(timeout=60)
        return [draw(stream(71, k), 500) for k in ks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            even, odd = pool.map(run, [range(0, 8, 2), range(1, 8, 2)])
    finally:
        sys.setswitchinterval(interval)
    together = [x for pair in zip(even, odd) for x in pair]
    assert all(np.array_equal(x, y) for x, y in zip(alone, together))


def test_compound_poisson_estimate_pinned():
    # fixed by the streams, the inverse Gaussian sampler and the default grid
    # (13 cells since it has the fewest cells that certify its bias); moves
    # if any of them changes
    from subsing import integrate as itg
    from subsing import moments as mo
    est = mo.char_functional_mc(bf.parse_phi("tempered:0.5,1"),
                                itg.parse_integrand("exp:1"), 1.0, 4000, seed=11)
    assert (est.mean, est.std_error) == (0.758832306059596, 0.002759859772602085)


# every exponent that parse_phi reads, and one that it does not: together
# they cover every Catalog kind
TABLE_IDS = ["stable:0.5", "gamma", "tempered:0.3,1", "stablelog:0.5,0.2",
             "stableloginv:0.5,0.2", "ratio:0.5", "drift:1"]


@pytest.mark.parametrize("phi", [bf.parse_phi(i) for i in TABLE_IDS]
                         + [bf.custom(np.sqrt)], ids=TABLE_IDS + ["custom"])
def test_samplers_table_is_the_one_list(phi, capsys):
    # require_sampler, grid_sampler and `subsing bf` all read SAMPLERS
    times = np.array([0.0, 0.5, 1.0])
    if phi.kind in sub.SAMPLERS:
        sub.require_sampler(phi)
        assert sub.grid_sampler(phi, times)(stream(5, 0), 2).shape == (2, 2)
    else:
        with pytest.raises(CapabilityError, match="no exact grid sampler"):
            sub.require_sampler(phi)
        with pytest.raises(CapabilityError, match="no exact grid sampler"):
            sub.grid_sampler(phi, times)
    if phi.kind is not bf.Catalog.CUSTOM:
        assert main(["bf", "--phi", phi.name]) == 0
        assert f"simulable={phi.kind in sub.SAMPLERS}" in capsys.readouterr().out


def test_table_ids_cover_every_kind():
    kinds = {bf.parse_phi(i).kind for i in TABLE_IDS} | {bf.custom(np.sqrt).kind}
    assert kinds == set(bf.Catalog)
    assert set(sub.SAMPLERS) < kinds


def test_exponent_outside_the_table_is_never_drawn():
    # the drift's parameters under a kind that has no sampler: refused, not
    # drawn as a drift
    phi = dataclasses.replace(bf.drift_only(1.0), kind=bf.Catalog.RATIO)
    with pytest.raises(CapabilityError):
        sub.grid_increments(phi, [0.0, 1.0], stream(5, 0), 2)


# draws of every sampler route from stream(49, 0), pinned bit for bit: the
# first and last path and the sum of all paths.  tempered:0.3,1 on [0, 4]
# has 16 pieces, so a first pass, a pass of k = 15 and redraws;
# tempered:0.7,2 has 4, 17 and 39 pieces in its cells, so passes of k = 3,
# 13 and 22, each with redraws
ROUTE_GRID = [0.0, 0.5, 3.0, 9.0]
ROUTE_PINS = [
    ("tempered:0.3,1", [0.0, 4.0], 5, [1.9585008221040276],
     [0.14781930772071086], 4.140555230439824),
    ("tempered:0.7,2", ROUTE_GRID, 33,
     [0.27493943682730065, 1.2709776076730883, 3.3061486811247374],
     [0.09115379566147559, 1.3402277425474258, 4.881043801747563],
     165.44898276426395),
    ("stable:0.3", ROUTE_GRID, 4,
     [0.0013177665685982244, 0.38348400398088694, 194.5681037536085],
     [0.002928529021516437, 32.74005315427462, 14170.727494885885],
     7096208.64955559),
    ("stable:0.5", ROUTE_GRID, 4,
     [0.14552283233337643, 0.8691741037563814, 12.238222005457034],
     [0.5496838644597392, 5.468139887980572, 718.0120225618962],
     1072.3926115032782),
    ("tempered:0.5,1", ROUTE_GRID, 4,
     [0.8565158209473722, 0.400979944267218, 4.8978659737768],
     [0.12892545404437367, 0.7783851464325673, 3.20028561879914],
     19.379200644398807),
    ("gamma", ROUTE_GRID, 4,
     [0.12810202912576832, 4.486959413147999, 9.06437976668776],
     [0.04498188950519594, 2.2972462067963293, 4.367681581637855],
     35.05351553991068),
    ("drift:2", ROUTE_GRID, 4, [1.0, 5.0, 12.0], [1.0, 5.0, 12.0], 72.0),
]


@pytest.mark.parametrize("phi, times, n_paths, first, last, total", ROUTE_PINS,
                         ids=[pin[0] for pin in ROUTE_PINS])
def test_sampler_route_pinned(phi, times, n_paths, first, last, total):
    x = sub.grid_increments(bf.parse_phi(phi), times, stream(49, 0), n_paths)
    assert x.shape == (n_paths, len(times) - 1)
    assert (x[0].tolist(), x[-1].tolist(), float(x.sum())) == (first, last, total)
