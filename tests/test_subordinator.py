import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from subsing import bernstein as bf
from subsing import subordinator as sub
from subsing.errors import CapabilityError, DomainError, RangeError
from subsing.rng import as_generator, stream


def test_time_grid_basic():
    g = sub.time_grid(1.0, 0.25)
    assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        sub.time_grid(1.0, 2.0)


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
                              as_generator(1))[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0)
    # Laplace certification at the path level: e^{-r S_1} vs e^{-phi(r)}
    rng = stream(9, 0)
    inc = sub.stable_grid_increments(alpha, np.array([0.0, 1.0]), rng, 100_000)
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
    s1 = sub.stable_grid_increments(alpha, np.array([0.0, 1.0]), rng, n)[:, 0]
    for t in ts:
        st_ = sub.stable_grid_increments(alpha, np.array([0.0, t]), rng, n)[:, 0]
        res = stats.ks_2samp(st_, t ** (1 / alpha) * s1)
        assert res.pvalue > level


def test_stable_independent_increments():
    rng = stream(21, 0)
    inc = sub.stable_grid_increments(0.5, np.array([0.0, 0.5, 1.0]), rng, 50_000)
    # correlate bounded transforms; raw stable increments have no variance
    a = np.exp(-inc[:, 0])
    b = np.exp(-inc[:, 1])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(len(a))


def test_gamma_increments_match_transform():
    rng = stream(3, 0)
    inc = sub.gamma_grid_increments(np.linspace(0, 2, 9), rng, 50_000)
    s2 = inc.sum(axis=1)
    vals = np.exp(-s2)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.25) <= 3 * se     # (1+1)^-2
    # mean of S_2 is 2 (unit mean rate)
    se_m = s2.std() / math.sqrt(len(s2))
    assert abs(s2.mean() - 2.0) <= 3 * se_m


def test_determinism_bit_identical():
    times = sub.time_grid(1.0, 0.01)
    a = sub.grid_increments(bf.stable(0.5), times, as_generator(42))
    b = sub.grid_increments(bf.stable(0.5), times, as_generator(42))
    assert np.array_equal(a, b)
    g1 = sub.simulate_general(bf.gamma_exponent(), 1.0, 1e-3, seed=5)
    g2 = sub.simulate_general(bf.gamma_exponent(), 1.0, 1e-3, seed=5)
    assert np.array_equal(g1.jump_times, g2.jump_times)
    assert np.array_equal(g1.jump_sizes, g2.jump_sizes)
    assert g1.drift == g2.drift


@pytest.mark.parametrize("phi_id", ["gamma", "tempered:0.5,1", "stable:0.6",
                                    "drift:1"])
@pytest.mark.parametrize("T, eps", [(1.0, 1e-3), (2.0, 1e-2)])
def test_general_path_is_one_sorted_jump_batch(phi_id, T, eps):
    phi = bf.parse_phi(phi_id)
    for seed in (0, 7):
        path = sub.simulate_general(phi, T, eps, seed=seed)
        drift, counts, times, sizes = sub.cp_jump_batch(phi, T, eps,
                                                        as_generator(seed), 1)
        assert counts.tolist() == [len(times)]
        assert path.drift == drift
        assert np.array_equal(path.jump_times, np.sort(times))
        assert np.array_equal(path.jump_sizes, sizes)


def test_drift_only_general():
    path = sub.simulate_general(bf.drift_only(1.0), 2.0, 0.1, seed=0)
    assert len(path.jump_times) == 0
    assert path.provenance == "DriftOnly"
    assert sub.evaluate(path, 0.5) == pytest.approx(0.5)
    assert path.total_mass == pytest.approx(2.0)


def test_laplace_certification_all_simulable():
    # every simulable exponent reproduces exp(-T phi(r)) within 3 SE
    times = np.linspace(0.0, 1.0, 17)
    cases = [(bf.stable(0.5), 0), (bf.gamma_exponent(), 1),
             (bf.tempered_stable(0.5, 1.0), 2), (bf.drift_only(0.7), 3)]
    for phi, k in cases:
        rng = stream(41, k)
        inc = sub.grid_increments(phi, times, rng, 100_000, eps=1e-4)
        s1 = inc.sum(axis=1)
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(-r * s1)
            se = vals.std() / math.sqrt(len(vals))
            err = abs(vals.mean() - math.exp(-phi(r)))
            assert err <= max(3 * se, 1e-12), (phi.name, r, err, se)


def test_compound_poisson_structure():
    phi = bf.gamma_exponent()
    path = sub.simulate_general(phi, 2.0, 1e-2, seed=11)
    assert np.all(path.jump_sizes >= 1e-2)
    assert path.drift == pytest.approx(phi.triplet.small_jump_mean(1e-2))
    assert np.all(np.diff(path.jump_times) > 0)
    assert path.diagnostics["inv_cdf_knots"] == sub.INV_CDF_KNOTS


def test_general_requires_jump_structure():
    with pytest.raises(CapabilityError):
        sub.simulate_general(bf.ratio(0.5), 1.0, 1e-2, seed=0)
    with pytest.raises(DomainError):
        sub.simulate_general(bf.gamma_exponent(), 1.0, -1.0, seed=0)


def test_general_mean_drift_compensation():
    # mean of S_T for the gamma driver is T regardless of the cutoff
    phi = bf.gamma_exponent()
    rng = stream(13, 0)
    _, counts, times, sizes = sub.cp_jump_batch(phi, 2.0, 1e-3, rng, 4000)
    drift = phi.triplet.drift + phi.triplet.small_jump_mean(1e-3)
    path_of = np.repeat(np.arange(4000), counts)
    totals = np.bincount(path_of, weights=sizes, minlength=4000) + drift * 2.0
    se = totals.std() / math.sqrt(len(totals))
    assert abs(totals.mean() - 2.0) <= 3 * se


def test_laplace_error_shrinks_with_cutoff():
    # exponent bias of the cutoff approximation decreases as eps -> 0
    phi = bf.gamma_exponent()
    r, T, n = 4.0, 1.0, 200_000
    exact = math.exp(-T * phi(r))
    errs = []
    for k, eps in enumerate((1e-1, 1e-2, 1e-3)):
        rng = stream(17, k)
        drift, counts, _, sizes = sub.cp_jump_batch(phi, T, eps, rng, n)
        path_of = np.repeat(np.arange(n), counts)
        s_T = np.bincount(path_of, weights=sizes, minlength=n) + drift * T
        vals = np.exp(-r * s_T)
        errs.append(abs(vals.mean() - exact))
        se = vals.std() / math.sqrt(n)
    assert errs[0] > errs[1] - 3 * se
    assert errs[0] > errs[2] - 3 * se
    assert errs[1] > errs[2] - 3 * se


def test_evaluate_conventions():
    p = sub.SubordinatorPath(1.0, 0.0, np.array([0.5]), np.array([2.0]), "t")
    assert sub.evaluate(p, 0.5) == 2.0       # jump at t included
    assert sub.evaluate(p, 0.49) == 0.0
    assert sub.evaluate(p, 1.0) == p.total_mass
    with pytest.raises(DomainError):
        sub.evaluate(p, 1.5)


def test_inverse_time_examples():
    drift = sub.SubordinatorPath(1.0, 2.0, np.array([]), np.array([]), "d")
    assert sub.inverse_time(drift, 1.0) == pytest.approx(0.5)
    # jump from 1 to 3 at tau = 0.5: inverse is flat across the jump
    p = sub.SubordinatorPath(1.0, 2.0, np.array([0.5]), np.array([2.0]), "t")
    assert sub.inverse_time(p, 2.0) == pytest.approx(0.5)
    assert sub.inverse_time(p, 1.5) == pytest.approx(0.5)
    assert sub.inverse_time(p, 3.5) == pytest.approx(0.75)
    with pytest.raises(RangeError):
        sub.inverse_time(p, 4.0)


def _lebesgue_lhs(path, t_level):
    """Exact integral of the inverse path: int_0^t linv_s ds for f(s)=s."""
    b, jt, js = path.drift, path.jump_times, path.jump_sizes
    post = b * jt + np.cumsum(js)
    pre = post - js
    total = 0.0
    level = 0.0
    prev_time = 0.0
    for k in range(len(jt)):
        lo, hi = level, min(pre[k], t_level)
        if hi > lo:   # linear stretch between jumps, slope 1/b
            t0 = prev_time
            t1 = t0 + (hi - lo) / b
            total += 0.5 * (t0 + t1) * (hi - lo)
        if t_level <= pre[k]:
            return total
        lo, hi = pre[k], min(post[k], t_level)
        total += jt[k] * (hi - lo)              # flat stretch across the jump
        if t_level <= post[k]:
            return total
        level = post[k]
        prev_time = jt[k]
    hi = t_level
    t0 = prev_time
    t1 = t0 + (hi - level) / b
    total += 0.5 * (t0 + t1) * (hi - level)
    return total


def test_change_of_variables_identity():
    # int_0^t f(linv_s) ds == int_0^{linv_t} f(s) dl_s for f(s)=s, at levels
    # in the range of the path
    phi = bf.gamma_exponent()
    for seed in (3, 5, 8):
        path = sub.simulate_general(phi, 2.0, 1e-3, seed=seed)
        for s0 in (0.3, 1.1, 1.9):
            t_level = sub.evaluate(path, s0)
            linv = sub.inverse_time(path, t_level)
            lhs = _lebesgue_lhs(path, t_level)
            k = np.searchsorted(path.jump_times, linv, side="right")
            rhs = path.drift * linv ** 2 / 2 + float(
                (path.jump_times[:k] * path.jump_sizes[:k]).sum())
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_inverse_time_is_right_inverse(data):
    n = data.draw(st.integers(1, 6))
    jt = np.sort(np.array(sorted(set(
        data.draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))))))
    js = np.array(data.draw(st.lists(st.floats(0.01, 2.0),
                                     min_size=len(jt), max_size=len(jt))))
    b = data.draw(st.floats(0.1, 3.0))
    path = sub.SubordinatorPath(1.0, b, jt, js, "h")
    t = data.draw(st.floats(0.0, 0.999)) * path.total_mass
    s = sub.inverse_time(path, t)
    assert sub.evaluate(path, min(s, 1.0)) >= t - 1e-12
    if s > 1e-9:
        assert sub.evaluate(path, s * (1 - 1e-9)) <= t + 1e-9 * path.total_mass


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["tempered:0.5,1", "tempered:0.3,2", "gamma"])
def test_jump_lookup_equals_linear_interpolation(name):
    # the guide-table inversion is np.interp on the table, bit for bit
    sampler = sub.jump_sampler(bf.parse_phi(name), 1e-4)
    cdf, knots = sampler._cdf, sampler._knots
    assert np.any(np.diff(cdf) == 0.0)   # the table has flat steps to cover
    edges = np.arange(sub.GUIDE_CELLS) / sub.GUIDE_CELLS
    cases = [stream(3, 0).uniform(0.0, 1.0, 100_000), np.array([0.0]),
             cdf[cdf < 1.0], np.array([np.nextafter(1.0, 0.0)]),
             edges, np.nextafter(edges, 1.0)]
    for u in cases:
        assert _same_bits(sampler.quantile(u), np.interp(u, cdf, knots))
    for size in (0, 1, 3 * sub.LOOKUP_SLICE + 17):
        u = stream(4, size).uniform(0.0, 1.0, size)
        assert _same_bits(sampler.draw(stream(4, size), size),
                          np.interp(u, cdf, knots))


def test_compound_poisson_estimate_pinned():
    # fixed by the streams and the inversion; moves if either changes
    from subsing import integrate as itg
    from subsing import moments as mo
    est = mo.char_functional_mc(bf.parse_phi("tempered:0.5,1"),
                                itg.parse_integrand("exp:1"), 1.0, 4000, seed=11)
    assert (est.mean, est.std_error) == (0.756973022413373, 0.0027170850468114967)
