import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsing import bernstein as bf
from subsing import integrate as itg
from subsing import moments as mo
from subsing.errors import DomainError, GateViolation

ST5 = bf.stable(0.5)
GAMMA = bf.gamma_exponent()
UNIT = itg.constant(1.0)
G_RATIO = 1.4464090846320767     # Gamma(0.5) / Gamma(0.75)


def test_gamma_functional_equation():
    for r in (0.25, 0.5, 1.5):
        assert mo.gamma_fn(1 + r) == pytest.approx(r * mo.gamma_fn(r), rel=1e-12)
    assert mo.gamma_fn(0.0) == math.inf


class TestExactStableMoment:
    def test_infinite_branch(self):
        assert mo.exact_stable_moment(0.5, 0.5, UNIT, (0, 1)) == math.inf
        assert mo.exact_stable_moment(0.5, 0.9, UNIT, (0, 1)) == math.inf

    def test_zeroth_moment(self):
        assert mo.exact_stable_moment(0.5, 0.0, UNIT, (0, 1)) == 1.0

    def test_negative_moment(self):
        assert mo.exact_stable_moment(0.5, -1.0, UNIT, (0, 1)) == pytest.approx(2.0)

    def test_singular_integrand_value(self):
        # scale integral of t^(-0.25) over (0,1) is 4/3
        v = mo.exact_stable_moment(0.5, 0.25, itg.power_singular(0.5), (0, 1))
        assert v == pytest.approx(G_RATIO * (4 / 3) ** 0.5, rel=1e-12)

    def test_divergent_scale_branches(self):
        f = itg.power_singular(3.0)
        assert mo.exact_stable_moment(0.5, 0.25, f, (0, 1)) == math.inf
        assert mo.exact_stable_moment(0.5, -0.5, f, (0, 1)) == 0.0
        assert mo.exact_stable_moment(0.5, 0.0, f, (0, 1)) == 1.0

    def test_vanishing_integrand_rejected(self):
        with pytest.raises(DomainError):
            mo.exact_stable_moment(0.5, 0.25, itg.constant(0.0), (0, 1))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, 0.9), p=st.floats(-3.0, 0.99))
    def test_branch_consistency(self, alpha, p):
        v = mo.exact_stable_moment(alpha, p, UNIT, (0, 1))
        if p >= alpha:
            assert v == math.inf
        elif p == 0:
            assert v == 1.0
        else:
            assert 0 < v < math.inf


class TestCorollaryCases:
    def test_degenerate_power_head(self):
        C = mo.CorollaryCase.POWER_HEAD
        assert mo.corollary_case_moment(0.5, 1.0, 1.0, C, theta=2.0) == math.inf
        assert mo.corollary_case_moment(0.5, 0.0, 1.0, C, theta=3.0) == 1.0
        assert mo.corollary_case_moment(0.5, -1.0, 1.0, C, theta=2.0) == 0.0

    def test_exponential_head_value(self):
        v = mo.corollary_case_moment(0.5, 0.25, 1.0,
                                     mo.CorollaryCase.EXPONENTIAL_HEAD, lam=1.0)
        assert v == pytest.approx(G_RATIO * ((1 - math.exp(-0.5)) / 0.5) ** 0.5,
                                  rel=1e-12)

    def test_power_tail_degenerate(self):
        C = mo.CorollaryCase.POWER_TAIL
        assert mo.corollary_case_moment(0.5, 0.5, 1.0, C, theta=1.5) == math.inf
        assert mo.corollary_case_moment(0.5, 0.0, 1.0, C, theta=1.5) == 1.0
        assert mo.corollary_case_moment(0.5, -1.0, 1.0, C, theta=1.5) == 0.0

    @pytest.mark.parametrize("alpha,p,theta,T", [
        (0.5, 0.25, 0.5, 1.0), (0.5, 0.25, 0.5, 2.0), (0.7, -0.5, 1.0, 0.5),
    ])
    def test_head_consistent_with_general_formula(self, alpha, p, theta, T):
        a = mo.corollary_case_moment(alpha, p, T, mo.CorollaryCase.POWER_HEAD,
                                     theta=theta)
        b = mo.exact_stable_moment(alpha, p, itg.power_singular(theta), (0, T))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("alpha,p,theta,T", [
        (0.5, 0.25, 4.0, 1.0), (0.6, -1.0, 3.0, 2.0),
    ])
    def test_tail_consistent_with_general_formula(self, alpha, p, theta, T):
        a = mo.corollary_case_moment(alpha, p, T, mo.CorollaryCase.POWER_TAIL,
                                     theta=theta)
        b = mo.exact_stable_moment(alpha, p, itg.power_singular(theta),
                                   (T, math.inf))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("alpha,p,lam,T", [
        (0.5, 0.25, 1.0, 1.0), (0.7, -0.5, 2.0, 1.5),
    ])
    def test_exp_consistent_with_general_formula(self, alpha, p, lam, T):
        a = mo.corollary_case_moment(alpha, p, T,
                                     mo.CorollaryCase.EXPONENTIAL_HEAD, lam=lam)
        b = mo.exact_stable_moment(alpha, p, itg.exponential(lam), (0, T))
        assert a == pytest.approx(b, rel=1e-8)


class TestCharFunctional:
    def test_exact_values(self):
        assert mo.char_functional_exact(ST5, itg.power_singular(1.0),
                                        (0, 1)) == pytest.approx(math.exp(-2))
        assert mo.char_functional_exact(ST5, itg.constant(0.0), (0, 1)) == 1.0
        # constant integrand: exp(-T c^alpha)
        assert mo.char_functional_exact(bf.stable(0.7), UNIT,
                                        (0, 2)) == pytest.approx(math.exp(-2))
        # divergent criterion collapses the functional
        assert mo.char_functional_exact(ST5, itg.power_singular(3.0),
                                        (0, 1)) == 0.0

    def test_zero_integrand_mc_is_deterministic(self):
        est = mo.char_functional_mc(ST5, itg.constant(0.0), 1.0, 1000, 5)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_mc_agrees_with_exact(self):
        est = mo.char_functional_mc(bf.stable(0.7), UNIT, 1.0, 30_000, 7)
        assert est.agrees_with(math.exp(-1))

    def test_time_reversal_agreement(self):
        f = itg.exponential(1.0)
        fr = itg.time_reversed(f, 1.0)
        a = mo.char_functional_mc(ST5, f, 1.0, 30_000, 8, dt=1 / 200)
        b = mo.char_functional_mc(ST5, fr, 1.0, 30_000, 9, dt=1 / 200)
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error)


class TestMcMoment:
    def test_zeroth_moment_exact(self):
        est = mo.mc_moment(ST5, 0.0, UNIT, 1.0, 1000, 3)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_matches_exact_positive(self):
        est = mo.mc_moment(ST5, 0.25, UNIT, 1.0, 100_000, 11)
        assert est.method == "median_of_means"
        assert est.agrees_with(G_RATIO)

    def test_matches_exact_negative(self):
        est = mo.mc_moment(ST5, -1.0, UNIT, 1.0, 50_000, 13)
        assert est.agrees_with(2.0)

    def test_infinite_samples_propagate(self):
        vals = np.array([1.0, math.inf, 2.0])
        assert mo._power_transform(vals, 0.5)[1] == math.inf
        assert mo._power_transform(vals, -0.5)[1] == 0.0
        assert np.all(mo._power_transform(vals, 0.0) == 1.0)
        # a singularity steep enough to overflow the guard yields inf means
        est = mo.mc_moment(ST5, 0.5, itg.power_singular(40.0), 1.0, 200, 5,
                           method="plain", dt=1e-2)
        assert est.mean == math.inf


class TestBoundScan:
    def test_stable_ratio_nearly_constant(self):
        rep = mo.bound_scan(ST5, 0.25, [1, 2, 4, 8], 20_000, 5, theta=0.0)
        assert rep.clause == "iii"
        assert max(rep.ratios) / min(rep.ratios) <= 1.5

    def test_trivial_zero_moment(self):
        rep = mo.bound_scan(ST5, 0.0, [1, 2], 100, 5, theta=0.0)
        assert all(e.mean == 1.0 for e in rep.estimates)
        assert rep.clause == "trivial"

    def test_gamma_scan_finite(self):
        rep = mo.bound_scan(GAMMA, 0.5, [1, 2, 4, 8, 16], 10_000, 6, theta=0.0)
        assert math.isfinite(rep.max_ratio)

    def test_gate_violation_names_condition(self):
        with pytest.raises(GateViolation) as err:
            mo.bound_scan(ST5, 0.7, [1, 2], 100, 5, theta=0.0)
        assert "log2" in str(err.value) and "p" in str(err.value)

    def test_gate_large_theta_refused(self):
        with pytest.raises(GateViolation) as err:
            mo.bound_scan(ST5, 0.25, [2, 4], 100, 5, theta=3.0)
        assert "theta" in str(err.value)

    def test_negative_p_clause(self):
        rep = mo.bound_scan(ST5, -0.5, [1, 2, 4], 10_000, 7, theta=0.5,
                            dt=1e-3)
        assert rep.clause == "i"
        assert math.isfinite(rep.max_ratio)

    def test_exponential_clause(self):
        rep = mo.bound_scan(ST5, -0.5, [0.5, 1, 2], 10_000, 8, lam=1.0)
        assert rep.clause == "vi"
        assert math.isfinite(rep.max_ratio)
        with pytest.raises(GateViolation):
            mo.bound_scan(ST5, 0.25, [1, 2], 100, 5, lam=1.0)


class TestEquivalence:
    def test_stable_values(self):
        res = mo.exp_moment_equivalence(ST5, 0.25, 1.0)
        assert res.verdict is mo.Equivalence.BOTH_FINITE
        assert res.criterion_value == pytest.approx(4.0, rel=1e-8)
        res2 = mo.exp_moment_equivalence(ST5, 0.75, 1.0)
        assert res2.verdict is mo.Equivalence.BOTH_INFINITE

    def test_log_family_boundary(self):
        phi = bf.stable_log(0.5, 0.3)          # admissible below p = 0.8
        assert mo.exp_moment_equivalence(phi, 0.75, 1.0).verdict \
            is mo.Equivalence.BOTH_FINITE
        assert mo.exp_moment_equivalence(phi, 0.85, 1.0).verdict \
            is mo.Equivalence.BOTH_INFINITE

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            mo.exp_moment_equivalence(ST5, 1.5, 1.0)


class TestDefaultGrid:
    @pytest.mark.parametrize("phi_id", ["stable:0.3", "stable:0.5",
                                        "stable:0.7", "gamma"])
    @pytest.mark.parametrize("f_id", ["pow:0.5", "pow:0.9", "exp:1"])
    def test_certified_within_256_cells(self, phi_id, f_id):
        phi, f = bf.parse_phi(phi_id), itg.parse_integrand(f_id)
        times = mo._default_times(f, 1.0, None, phi)
        assert len(times) - 1 <= 256
        assert abs(mo.grid_bias(phi, f, times)) <= mo.GRID_BIAS_TOL
        if f_id == "pow:0.5":
            assert len(times) - 1 <= 128

    def test_bias_of_one_cell(self):
        # t^-1/2 on (0, 1]: the cell mean is 2, and int phi(f) = 4/3 for
        # phi = s^(1/2)
        bias = mo.grid_bias(ST5, itg.power_singular(0.5), np.array([0.0, 1.0]))
        assert bias == pytest.approx(math.exp(-math.sqrt(2)) - math.exp(-4 / 3),
                                     rel=1e-12)

    def test_explicit_dt_is_honoured(self):
        assert len(mo._default_times(itg.exponential(1.0), 1.0, 1 / 200, ST5)) == 201
        assert len(mo._default_times(itg.power_singular(0.5), 1.0, 1 / 300,
                                     ST5)) == 301

    def test_uncertifiable_grid_stops_at_the_cap(self, monkeypatch):
        # no grid certifies a zero tolerance
        monkeypatch.setattr(mo, "GRID_BIAS_TOL", 0.0)
        phi, f = bf.stable(0.7), itg.power_singular(0.9)
        times = mo._default_times(f, 1.0, None, phi)
        assert len(times) - 1 == mo.MAX_CELLS
        assert abs(mo.grid_bias(phi, f, times)) > mo.GRID_BIAS_TOL

    @pytest.mark.parametrize("phi_id,f_id,cells", [
        ("stable:0.7", "pow:1.2", 256), ("stable:0.5", "pow:1.5", 512)])
    def test_nonintegrable_first_cell_certified(self, phi_id, f_id, cells):
        # theta >= 1: the first cell takes the inward weight f(times[1])
        phi, f = bf.parse_phi(phi_id), itg.parse_integrand(f_id)
        times = mo._default_times(f, 1.0, None, phi)
        assert len(times) - 1 <= cells
        assert abs(mo.grid_bias(phi, f, times)) <= mo.GRID_BIAS_TOL

    def test_inward_weight_stays_finite_at_the_cap(self):
        # alpha theta = 0.975 < 1: the integral converges, and the weight
        # t_1^-6.5 of the finest graded grid must not overflow
        phi, f = bf.stable(0.15), itg.power_singular(6.5)
        times = mo._default_times(f, 1.0, 1.0 / mo.MAX_CELLS, phi)
        assert len(times) - 1 == mo.MAX_CELLS
        assert np.all(np.isfinite(itg.cell_means(f, times)))
        assert math.isfinite(mo.grid_bias(phi, f, times))


def test_jump_table_built_once_per_run(monkeypatch):
    from subsing import subordinator as sub
    phi = bf.parse_phi("tempered:0.5,1")
    f = itg.exponential(1.0)
    sub._cached_jump_sampler.cache_clear()
    cold = mo.char_functional_mc(phi, f, 1.0, 2000, 3)
    assert sub._cached_jump_sampler.cache_info().misses == 1
    warm = mo.char_functional_mc(phi, f, 1.0, 2000, 3)
    assert warm == cold
    # concurrent blocks wait for the first build instead of repeating it
    sub._cached_jump_sampler.cache_clear()
    monkeypatch.setenv("SUBSING_WORKERS", "4")
    assert mo.char_functional_mc(phi, f, 1.0, 2000, 3) == cold
    assert sub._cached_jump_sampler.cache_info().misses == 1


def test_worker_pool_preserves_results(monkeypatch):
    est1 = mo.mc_moment(ST5, 0.25, UNIT, 1.0, 8000, 5)
    monkeypatch.setenv("SUBSING_WORKERS", "4")
    est2 = mo.mc_moment(ST5, 0.25, UNIT, 1.0, 8000, 5)
    assert est1 == est2


def test_heavy_tail_flag_from_partials():
    from subsing.mc import Moments, estimate_from_blocks
    means = np.linspace(1.0, 2.0, 32)

    def blocks(second):     # 32 blocks of 100 with these raw second moments
        return [Moments(100, m, 100 * (s - m * m)) for m, s in zip(means, second)]

    assert estimate_from_blocks(blocks(np.geomspace(1.0, 64.0, 32))).heavy_tail_flag
    assert not estimate_from_blocks(blocks(np.full(32, 4.5))).heavy_tail_flag


def test_median_of_means_se_definition():
    from subsing.mc import Moments, estimate_from_blocks
    means = np.arange(32, dtype=float)
    est = estimate_from_blocks([Moments(10, m, 0.0) for m in means],
                               "median_of_means")
    assert est.mean == pytest.approx(float(np.median(means)))
    assert est.std_error == pytest.approx(
        math.sqrt(math.pi / 64) * float(np.std(means, ddof=1)))


def test_bound_rhs_stable_matches_scaling():
    # phi^{-1}(1/T) = T^{-1/alpha}: rhs of the bare-moment bound is T^{p/alpha}
    for T in (1.0, 2.0, 8.0):
        assert mo.bound_rhs(ST5, 0.25, T, theta=0.0) == pytest.approx(
            T ** 0.5, rel=1e-9)
