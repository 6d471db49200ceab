import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as si

from subsing import bernstein as bf
from subsing import integrate as itg
from subsing import subordinator as sub
from subsing.errors import DomainError
from subsing.moments import mc_moment

STABLE = bf.stable(0.5)
GAMMA = bf.gamma_exponent()


class TestStieltjes:
    def test_grid_constant_recovers_total_mass(self):
        times = sub.time_grid(1.0, 0.125)
        inc = sub.grid_increments(STABLE, times, np.random.default_rng(2))
        w = itg.cell_means(itg.constant(1.0), times)
        total = itg.stieltjes_increments(w, inc)[0]
        assert total == pytest.approx(inc.sum())

    def test_grid_singular_uses_cell_averages(self):
        # cell means of t^-1/2: 2 sqrt(2) on (0, .5], 4 (1 - sqrt(.5)) on (.5, 1]
        times = np.array([0.0, 0.5, 1.0])
        inc = np.array([[1.0, 0.5]])
        expected = 2 * math.sqrt(2) * 1.0 + 4 * (1 - math.sqrt(0.5)) * 0.5
        assert expected == pytest.approx(3.4142, abs=1e-4)
        w = itg.cell_means(itg.power_singular(0.5), times)
        total = itg.stieltjes_increments(w, inc)[0]
        assert total == pytest.approx(expected)

    def test_grid_nonintegrable_first_cell_uses_first_interior_node(self):
        # t^-1.2 is not integrable at 0: the first weight stays f(times[1])
        times = np.array([0.0, 0.5, 1.0])
        f = itg.power_singular(1.2)
        w = itg.cell_means(f, times)
        assert w[0] == f(0.5)
        assert w[1] == pytest.approx(si.quad(f, 0.5, 1.0)[0] / 0.5, rel=1e-12)

    def test_overflow_maps_to_inf(self):
        # the first cell mean of t^-1/2 is 2e100: the first row sums to 2e300,
        # finite but above OVERFLOW_GUARD, and the second row overflows
        times = np.array([0.0, 1e-200, 1.0])
        inc = np.array([[1e200, 0.0], [1e300, 1.0]])
        f = itg.power_singular(0.5)
        assert itg.cell_means(f, times)[0] == pytest.approx(2e100)
        total = itg.stieltjes_increments(itg.cell_means(f, times), inc)
        assert total.tolist() == [math.inf, math.inf]


def _cell_grid(data, lo, hi):
    """Random grid in [lo, hi], 2 to 12 nodes, cells at least 1e-3 wide and
    nodes other than 0 at least 1e-12."""
    pts = data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=12,
                             unique=True))
    ts = np.unique(np.asarray(pts))
    assume(len(ts) >= 2 and np.all(np.diff(ts) > 1e-3))
    assume(ts[0] == 0.0 or ts[0] >= 1e-12)
    return ts


def _quad_means(f, ts):
    """Per-cell quad averages.  A cell away from 0 is cut at four points per
    decade, summing quad over the pieces, so that a singularity near its
    left end is resolved."""
    means = []
    for a, b in zip(ts[:-1], ts[1:]):
        cuts = {a, b}
        if a > 0 and b > 2 * a:
            cuts.update(np.geomspace(a, b, int(4 * math.log10(b / a)) + 2))
        edges = sorted(cuts)
        val = math.fsum(si.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12,
                                limit=200)[0]
                        for lo, hi in zip(edges[:-1], edges[1:]))
        means.append(val / (b - a))
    return np.array(means)


def _reversed_means(inner, T, ts):
    """Per-cell averages of inner(T - t) by mpmath.quad at 30 digits.

    In u = T - t a cell [a, b] becomes [T - b, T - a], so the reversed
    singularity at t = T is an endpoint, u = 0, which tanh-sinh quadrature
    resolves.  The quadrature's own error estimate must sit far below the
    1e-10 tolerance of the tests."""
    means = []
    with mpmath.workdps(30):
        for a, b in zip(ts[:-1], ts[1:]):
            lo, hi = T - mpmath.mpf(b), T - mpmath.mpf(a)
            val, err = mpmath.quad(inner, [lo, hi], error=True)
            assert err <= 1e-15 * val
            means.append(float(val / (hi - lo)))
    return np.array(means)


class TestCellMeans:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([-1.0, 0.5, 1.0]))
    def test_power_matches_quad(self, data, theta):
        # theta = 1 is not integrable at 0, so its cells stay away from 0
        ts = _cell_grid(data, 0.01 if theta == 1.0 else 0.0, 3.0)
        f = itg.power_singular(theta)
        np.testing.assert_allclose(itg.cell_means(f, ts), _quad_means(f, ts),
                                   rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.floats(0.1, 5.0))
    def test_exponential_matches_quad(self, data, lam):
        ts = _cell_grid(data, 0.0, 3.0)
        f = itg.exponential(lam)
        np.testing.assert_allclose(itg.cell_means(f, ts), _quad_means(f, ts),
                                   rtol=1e-10)

    def test_exponential_cell_of_underflowing_width(self):
        # lam h underflows to 0, where (1 - e^-lam h) / (lam h) is 1
        means = itg.cell_means(itg.exponential(1e-300), np.array([0.0, 1e-300]))
        assert means.tolist() == [1.0]

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.floats(0.0, 4.0, allow_subnormal=False))
    def test_constant_matches_quad(self, data, c):
        ts = _cell_grid(data, 0.0, 3.0)
        f = itg.constant(c)
        np.testing.assert_allclose(itg.cell_means(f, ts), _quad_means(f, ts),
                                   rtol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_time_reversed_matches_quad(self, data):
        # the singular end of (T - t)^-1/2 sits at t = T = 3; cells stay
        # away from it unless they end exactly there
        ts = _cell_grid(data, 0.0, 2.9)
        if data.draw(st.booleans()):
            ts = np.append(ts, 3.0)
        for inner, mp_inner in (
                (itg.power_singular(0.5), lambda u: u ** -0.5),
                (itg.exponential(2.0), lambda u: mpmath.exp(-2 * u))):
            f = itg.time_reversed(inner, 3.0)
            np.testing.assert_allclose(itg.cell_means(f, ts),
                                       _reversed_means(mp_inner, 3.0, ts),
                                       rtol=1e-10)


class TestFiniteness:
    def test_supercritical_power_diverges(self):
        res = itg.finiteness_criterion(itg.power_singular(3.0), STABLE, (0.0, 1.0))
        assert res.verdict is itg.Verdict.INFINITE

    def test_zero_integrand(self):
        res = itg.finiteness_criterion(itg.constant(0.0), STABLE, (0.0, 1.0))
        assert res.verdict is itg.Verdict.FINITE and res.value == 0.0

    def test_subcritical_power_value(self):
        res = itg.finiteness_criterion(itg.power_singular(1.0), STABLE, (0.0, 1.0))
        assert res.value == pytest.approx(2.0)

    def test_gamma_power_matches_quadrature(self):
        res = itg.finiteness_criterion(itg.power_singular(0.5), GAMMA, (0.0, 1.0))
        oracle, _ = si.quad(lambda t: math.log1p(t ** -0.5), 0, 1)
        assert res.value == pytest.approx(oracle, rel=1e-8)

    def test_exponential_full_line(self):
        res = itg.finiteness_criterion(itg.exponential(1.0), STABLE,
                                       (0.0, math.inf))
        assert res.value == pytest.approx(2.0, rel=1e-8)   # 1/(alpha*lam)

    def test_tail_domain(self):
        inf_res = itg.finiteness_criterion(itg.power_singular(2.0), STABLE,
                                           (1.0, math.inf))
        assert inf_res.verdict is itg.Verdict.INFINITE
        fin = itg.finiteness_criterion(itg.power_singular(4.0), STABLE,
                                       (1.0, math.inf))
        assert fin.value == pytest.approx(1.0)

    @pytest.mark.parametrize("theta, domain, value", [
        (2.0, (1.0, 2.0), math.log(2.0)),                  # q = 1: log(b/a)
        # t^-1031 near 0.5: a power past the double range, the value not
        (2062.0, (0.5, 0.5000000000000006), 1.2773377981014896e295),
        (1e300, (1e-300, 1e300), None),                    # past it: divergent
    ])
    def test_stable_power_closed_form_at_the_edges(self, theta, domain, value):
        res = itg.finiteness_criterion(itg.power_singular(theta), STABLE, domain)
        if value is None:
            assert res == itg.Finiteness(itg.Verdict.INFINITE)
        else:
            assert res.verdict is itg.Verdict.FINITE
            assert res.value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("phi, domain", [
        (bf.stable_log(0.5, 0.2), (1.0, 1e300)),       # about 1e450
        (bf.tempered_stable(0.3, 1e-300), (1e-300, 1e300)),
    ])
    def test_finite_domain_past_the_double_range_diverges(self, phi, domain):
        # quad's sums overflow on such a core and return nan with an
        # IntegrationWarning, which the suite would raise
        res = itg.finiteness_criterion(itg.power_singular(-1.0), phi, domain)
        assert res == itg.Finiteness(itg.Verdict.INFINITE)

    def test_time_reversed_reduces_to_inner(self):
        tr = itg.time_reversed(itg.exponential(2.0), 1.5)
        a = itg.finiteness_criterion(tr, GAMMA, (0.0, 1.5))
        b = itg.finiteness_criterion(itg.exponential(2.0), GAMMA, (0.0, 1.5))
        assert a.value == pytest.approx(b.value, rel=1e-10)


def _checked_integrand(f, phi):
    """The criterion's quadrature integrand before it called ``f.fn`` and
    ``phi.fn`` directly: through the checked calls of the exponent, with a
    scalar branch that the rule's arrays of nodes never reach."""
    def integrand(t):
        ft = f.fn(np.asarray(t, dtype=float))
        ft = float(ft) if np.ndim(ft) == 0 else ft
        if np.ndim(ft) == 0:
            return phi(ft) if ft > 0 else 0.0
        out = np.zeros_like(ft)
        pos = ft > 0
        if np.any(pos):
            out[pos] = phi.fn(ft[pos])
        return out

    return integrand


CRITERION_EXPONENTS = {"stable:0.3": bf.stable(0.3), "gamma": GAMMA,
                       "tempered:0.5,1": bf.tempered_stable(0.5, 1.0),
                       "stable_log:0.5,0.2": bf.stable_log(0.5, 0.2)}
CRITERION_INTEGRANDS = {"pow:0.5": itg.power_singular(0.5),
                        "pow:-1": itg.power_singular(-1.0),
                        "exp:2": itg.exponential(2.0),
                        "rev(exp:2,3)": itg.time_reversed(itg.exponential(2.0),
                                                          3.0)}


@pytest.mark.parametrize("domain", [(0.0, 1.0), (0.5, math.inf)],
                         ids=["unit", "tail"])
@pytest.mark.parametrize("f", list(CRITERION_INTEGRANDS))
@pytest.mark.parametrize("phi", list(CRITERION_EXPONENTS))
def test_criterion_integrand_is_the_checked_one(phi, f, domain, monkeypatch):
    # bit for bit on an array of nodes over the double range and inside the
    # domain, and so the same finiteness result, whose value is quad's within
    # QUAD_RTOL
    phi, f = CRITERION_EXPONENTS[phi], CRITERION_INTEGRANDS[f]
    fast, checked = itg._criterion_integrand(f, phi), _checked_integrand(f, phi)
    inner = np.linspace(domain[0], min(domain[1], 4.0), 103)[1:-1]
    t = np.concatenate([np.geomspace(1e-300, 1e300, 601), inner])
    got, want = fast(t), checked(t)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    got = itg.finiteness_criterion(f, phi, domain)
    if got.verdict is itg.Verdict.FINITE:
        # quad as the oracle, on (0, T) for a time-reversed f
        a, b = domain
        if f.kind is itg.IntegrandKind.TIME_REVERSED:
            b = min(b, f.params[1])
        oracle, _ = si.quad(checked, a, b, epsabs=itg.QUAD_ATOL,
                            epsrel=itg.QUAD_RTOL, limit=200)
        assert got.value == pytest.approx(oracle, rel=itg.QUAD_RTOL)
    monkeypatch.setattr(itg, "_criterion_integrand", _checked_integrand)
    assert got == itg.finiteness_criterion(f, phi, domain)


@pytest.mark.parametrize("fn, a, b, singular, value", [
    # the criterion of gamma for exp:lam on (0, inf) is pi^2 / (12 lam)
    (itg._criterion_integrand(itg.exponential(1.0), GAMMA), 0.0, math.inf,
     False, math.pi ** 2 / 12),
    (itg._criterion_integrand(itg.exponential(2.0), GAMMA), 0.0, math.inf,
     False, math.pi ** 2 / 24),
    # a core over the double range, whose mass is all below t = 40
    (itg._criterion_integrand(itg.exponential(1.0), GAMMA), 1e-300, 1e300,
     False, math.pi ** 2 / 12),
    # the stable power criterion t^-q, past its closed form
    (lambda t: t ** -0.5, 0.0, 1.0, True, itg._power_integral(0.0, 1.0, 0.5)),
    (lambda t: t ** -0.9, 0.0, 2.0, True, itg._power_integral(0.0, 2.0, 0.9)),
    (lambda t: t ** -1.5, 1.0, math.inf, False,
     itg._power_integral(1.0, math.inf, 1.5)),
    (lambda t: t ** -3.0, 0.5, math.inf, False,
     itg._power_integral(0.5, math.inf, 3.0)),
    (lambda t: t ** -1.0, 1.0, 1e10, False, itg._power_integral(1.0, 1e10, 1.0)),
    (lambda t: t ** -0.25, 1e-3, 1e3, False,
     itg._power_integral(1e-3, 1e3, 0.25)),
], ids=["gamma-exp:1", "gamma-exp:2", "gamma-exp:1-wide", "q=0.5", "q=0.9",
        "q=1.5-tail", "q=3-tail", "q=1-wide", "q=0.25-wide"])
def test_rule_matches_closed_forms(fn, a, b, singular, value):
    res = itg.improper_integral(fn, a, b, singular_lo=singular)
    assert res.verdict is itg.Verdict.FINITE
    assert res.value == pytest.approx(value, rel=itg.QUAD_RTOL)
    assert res.pieces > 0 and res.evaluations >= 3 * itg.GAUSS_NODES * res.pieces


class TestZeroOne:
    @pytest.mark.parametrize("theta,expected", [
        (2.0, itg.Verdict.INFINITE),    # theta >= 1/alpha
        (1.0, itg.Verdict.FINITE),      # theta <  1/alpha = 2
    ])
    def test_power_boundary(self, theta, expected):
        res = itg.finiteness_criterion(itg.power_singular(theta), STABLE, (0.0, 1.0))
        assert res.verdict is expected

    def test_exponential_full_line_finite(self):
        for phi in (STABLE, GAMMA):
            res = itg.finiteness_criterion(itg.exponential(1.0), phi, (0.0, math.inf))
            assert res.verdict is itg.Verdict.FINITE

    def test_empirical_dichotomy(self):
        # truncated integrals keep growing in the divergent case and settle in
        # the convergent one
        from conftest import relative_late_growth, truncation_medians
        _, med_div = truncation_medians(0.5, 2.5, 2000, 23)
        _, med_fin = truncation_medians(0.5, 1.5, 2000, 24)
        assert relative_late_growth(med_div) >= 0.3
        assert relative_late_growth(med_fin) <= 0.12


def test_time_reversal_moment_equality():
    # p-th moments of f and its reversal agree within overlapping 99% intervals
    phi = bf.stable(0.6)
    f = itg.exponential(1.0)
    fr = itg.time_reversed(f, 1.0)
    for p in (-0.5, 0.25):
        a = mc_moment(phi, p, f, 1.0, 30_000, 31, dt=1 / 200)
        b = mc_moment(phi, p, fr, 1.0, 30_000, 32, dt=1 / 200)
        half = 2.5758 * math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= half


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_time_reversed_refuses_a_horizon_not_positive_and_finite(T):
    # nan and inf were taken: at T = inf the criterion read FINITE 0.0 and
    # the cell means warned before they refused
    with pytest.raises(DomainError, match="positive and finite"):
        itg.time_reversed(itg.exponential(1.0), T)


def test_grid_refinement_consistency():
    # doubling the grid moves the estimate by less than its standard error
    phi = bf.stable(0.6)
    f = itg.exponential(1.0)
    a = mc_moment(phi, 0.25, f, 1.0, 40_000, 77, dt=1 / 128)
    b = mc_moment(phi, 0.25, f, 1.0, 40_000, 77, dt=1 / 256)
    assert abs(a.mean - b.mean) <= max(a.std_error, b.std_error)


def test_parse_integrand():
    assert itg.parse_integrand("pow:-0.5")(4.0) == pytest.approx(2.0)
    assert itg.parse_integrand("const:2")(123.0) == 2.0
    assert itg.parse_integrand("exp:2")(1.0) == pytest.approx(math.exp(-2))
