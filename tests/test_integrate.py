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
from subsing.moments import mc_moment
from subsing.rng import as_generator

STABLE = bf.stable(0.5)
GAMMA = bf.gamma_exponent()


def jump_path(times, sizes, drift=0.0, T=1.0):
    return sub.SubordinatorPath(T, drift, np.asarray(times, dtype=float),
                                np.asarray(sizes, dtype=float), "test")


class TestStieltjes:
    def test_single_jump_linear_integrand(self):
        # f(t) = t against one jump of 2.0 at t = 0.5
        p = jump_path([0.5], [2.0])
        assert itg.stieltjes(itg.power_singular(-1.0), p) == pytest.approx(1.0)

    def test_pure_drift_constant(self):
        p = jump_path([], [], drift=1.0, T=2.0)
        assert itg.stieltjes(itg.constant(3.0), p) == pytest.approx(6.0)

    def test_grid_constant_recovers_total_mass(self):
        times = sub.time_grid(1.0, 0.125)
        inc = sub.grid_increments(STABLE, times, as_generator(2))
        total = itg.stieltjes_increments(itg.constant(1.0), times, inc)[0]
        assert total == pytest.approx(inc.sum())

    def test_grid_singular_uses_cell_averages(self):
        # cell means of t^-1/2: 2 sqrt(2) on (0, .5], 4 (1 - sqrt(.5)) on (.5, 1]
        times = np.array([0.0, 0.5, 1.0])
        inc = np.array([[1.0, 0.5]])
        expected = 2 * math.sqrt(2) * 1.0 + 4 * (1 - math.sqrt(0.5)) * 0.5
        assert expected == pytest.approx(3.4142, abs=1e-4)
        total = itg.stieltjes_increments(itg.power_singular(0.5), times, inc)[0]
        assert total == pytest.approx(expected)

    def test_grid_nonintegrable_first_cell_uses_first_interior_node(self):
        # t^-1.2 is not integrable at 0: the first weight stays f(times[1])
        times = np.array([0.0, 0.5, 1.0])
        f = itg.power_singular(1.2)
        w = itg.cell_means(f, times)
        assert w[0] == f(0.5)
        assert w[1] == pytest.approx(si.quad(f, 0.5, 1.0)[0] / 0.5, rel=1e-12)

    def test_overflow_maps_to_inf(self):
        p = jump_path([1e-280], [1e280], T=1.0)
        assert itg.stieltjes(itg.power_singular(0.5), p) > 1e100
        p2 = jump_path([1e-290], [1e290])
        assert itg.stieltjes(itg.power_singular(0.9), p2) == math.inf

    def test_divergent_drift_part(self):
        p = jump_path([], [], drift=1.0)
        assert itg.stieltjes(itg.power_singular(1.5), p) == math.inf

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_linear_in_jumps_and_drift(self, data):
        n = data.draw(st.integers(1, 5))
        ts = sorted(set(data.draw(
            st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))))
        szs = data.draw(st.lists(st.floats(0.01, 5.0),
                                 min_size=len(ts), max_size=len(ts)))
        b1, b2 = data.draw(st.floats(0, 2)), data.draw(st.floats(0, 2))
        k = data.draw(st.integers(0, len(ts)))
        f = itg.exponential(1.0)
        whole = itg.stieltjes(f, jump_path(ts, szs, b1 + b2))
        part1 = itg.stieltjes(f, jump_path(ts[:k], szs[:k], b1))
        part2 = itg.stieltjes(f, jump_path(ts[k:], szs[k:], b2))
        assert whole == pytest.approx(part1 + part2, rel=1e-9, abs=1e-12)


def _cell_grid(data, lo, hi):
    """Random grid in [lo, hi], 2 to 12 nodes, cells at least 1e-3 wide and
    nodes other than 0 at least 1e-12."""
    pts = data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=12,
                             unique=True))
    ts = np.unique(np.asarray(pts))
    assume(len(ts) >= 2 and np.all(np.diff(ts) > 1e-3))
    assume(ts[0] == 0.0 or ts[0] >= 1e-12)
    return ts


def _quad_means(f, ts, points=()):
    """Per-cell quad averages.  A cell away from 0 is cut at the given points
    and at four points per decade, summing quad over the pieces, so that a
    singularity near its left end is resolved."""
    means = []
    for a, b in zip(ts[:-1], ts[1:]):
        cuts = {a, b, *(p for p in points if a < p < b)}
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

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_tabulated_matches_quad(self, data):
        knots = [0.0, 0.4, 1.1, 2.0, 2.5]
        values = data.draw(st.lists(st.floats(0.0, 5.0, allow_subnormal=False),
                                    min_size=5, max_size=5))
        ts = _cell_grid(data, 0.0, 3.0)
        f = itg.tabulated(knots, values)
        np.testing.assert_allclose(itg.cell_means(f, ts),
                                   _quad_means(f, ts, knots),
                                   rtol=1e-10, atol=1e-12)


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

    def test_time_reversed_reduces_to_inner(self):
        tr = itg.time_reversed(itg.exponential(2.0), 1.5)
        a = itg.finiteness_criterion(tr, GAMMA, (0.0, 1.5))
        b = itg.finiteness_criterion(itg.exponential(2.0), GAMMA, (0.0, 1.5))
        assert a.value == pytest.approx(b.value, rel=1e-10)


class TestZeroOne:
    @pytest.mark.parametrize("theta,expected", [
        (2.0, itg.ZeroOne.AS_INFINITE),    # theta >= 1/alpha
        (1.0, itg.ZeroOne.AS_FINITE),      # theta <  1/alpha = 2
    ])
    def test_power_boundary(self, theta, expected):
        assert itg.zero_one_verdict(itg.power_singular(theta), STABLE) is expected

    def test_exponential_full_line_finite(self):
        for phi in (STABLE, GAMMA):
            v = itg.zero_one_verdict(itg.exponential(1.0), phi, (0.0, math.inf))
            assert v is itg.ZeroOne.AS_FINITE

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


def test_tabulated_integrand():
    f = itg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert f(0.5) == pytest.approx(0.5)
    p = jump_path([0.5, 1.5], [1.0, 2.0], T=2.0)
    assert itg.stieltjes(f, p) == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)
