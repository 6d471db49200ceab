import math
import pathlib
import sys
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import CorollaryCase, corollary_case_moment
from subsing import bernstein as bf
from subsing import integrate as itg
from subsing import moments as mo
from subsing import subordinator as sub
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
        assert mo.exact_stable_moment(bf.stable(0.5), 0.5, UNIT, (0, 1)) == math.inf
        assert mo.exact_stable_moment(bf.stable(0.5), 0.9, UNIT, (0, 1)) == math.inf

    def test_zeroth_moment(self):
        assert mo.exact_stable_moment(bf.stable(0.5), 0.0, UNIT, (0, 1)) == 1.0

    def test_negative_moment(self):
        v = mo.exact_stable_moment(bf.stable(0.5), -1.0, UNIT, (0, 1))
        assert v == pytest.approx(2.0)

    def test_singular_integrand_value(self):
        # scale integral of t^(-0.25) over (0,1) is 4/3
        v = mo.exact_stable_moment(bf.stable(0.5), 0.25, itg.power_singular(0.5),
                                   (0, 1))
        assert v == pytest.approx(G_RATIO * (4 / 3) ** 0.5, rel=1e-12)

    def test_divergent_scale_branches(self):
        f = itg.power_singular(3.0)
        assert mo.exact_stable_moment(bf.stable(0.5), 0.25, f, (0, 1)) == math.inf
        assert mo.exact_stable_moment(bf.stable(0.5), -0.5, f, (0, 1)) == 0.0
        assert mo.exact_stable_moment(bf.stable(0.5), 0.0, f, (0, 1)) == 1.0

    def test_vanishing_integrand_rejected(self):
        with pytest.raises(DomainError):
            mo.exact_stable_moment(bf.stable(0.5), 0.25, itg.constant(0.0), (0, 1))

    def test_gamma_factor_past_the_double_range(self):
        # Gamma(201) overflows, but the moment 200! 1000^-200 does not; it is
        # taken in logs
        v = mo.exact_stable_moment(bf.stable(0.005), -1.0, UNIT, (0, 1000))
        with mpmath.workdps(30):
            ref = mpmath.gamma(201) / mpmath.gamma(2) * mpmath.mpf(1000) ** -200
        assert v == pytest.approx(float(ref), rel=1e-13)
        # about 1000! e^(1/2), past the double range: +inf
        assert mo.exact_stable_moment(bf.stable(0.001), -1.0, itg.exponential(1.0),
                                      (0, 1)) == math.inf

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, 0.9), p=st.floats(-3.0, 0.99))
    def test_branch_consistency(self, alpha, p):
        v = mo.exact_stable_moment(bf.stable(alpha), p, UNIT, (0, 1))
        if p >= alpha:
            assert v == math.inf
        elif p == 0:
            assert v == 1.0
        else:
            assert 0 < v < math.inf


class TestCorollaryCases:
    def test_degenerate_power_head(self):
        C = CorollaryCase.POWER_HEAD
        assert corollary_case_moment(0.5, 1.0, 1.0, C, theta=2.0) == math.inf
        assert corollary_case_moment(0.5, 0.0, 1.0, C, theta=3.0) == 1.0
        assert corollary_case_moment(0.5, -1.0, 1.0, C, theta=2.0) == 0.0

    def test_exponential_head_value(self):
        v = corollary_case_moment(0.5, 0.25, 1.0,
                                  CorollaryCase.EXPONENTIAL_HEAD, lam=1.0)
        assert v == pytest.approx(G_RATIO * ((1 - math.exp(-0.5)) / 0.5) ** 0.5,
                                  rel=1e-12)

    def test_power_tail_degenerate(self):
        C = CorollaryCase.POWER_TAIL
        assert corollary_case_moment(0.5, 0.5, 1.0, C, theta=1.5) == math.inf
        assert corollary_case_moment(0.5, 0.0, 1.0, C, theta=1.5) == 1.0
        assert corollary_case_moment(0.5, -1.0, 1.0, C, theta=1.5) == 0.0

    @pytest.mark.parametrize("alpha,p,theta,T", [
        (0.5, 0.25, 0.5, 1.0), (0.5, 0.25, 0.5, 2.0), (0.7, -0.5, 1.0, 0.5),
    ])
    def test_head_consistent_with_general_formula(self, alpha, p, theta, T):
        a = corollary_case_moment(alpha, p, T, CorollaryCase.POWER_HEAD,
                                  theta=theta)
        b = mo.exact_stable_moment(bf.stable(alpha), p, itg.power_singular(theta),
                                   (0, T))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("alpha,p,theta,T", [
        (0.5, 0.25, 4.0, 1.0), (0.6, -1.0, 3.0, 2.0),
    ])
    def test_tail_consistent_with_general_formula(self, alpha, p, theta, T):
        a = corollary_case_moment(alpha, p, T, CorollaryCase.POWER_TAIL,
                                  theta=theta)
        b = mo.exact_stable_moment(bf.stable(alpha), p, itg.power_singular(theta),
                                   (T, math.inf))
        assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("alpha,p,lam,T", [
        (0.5, 0.25, 1.0, 1.0), (0.7, -0.5, 2.0, 1.5),
    ])
    def test_exp_consistent_with_general_formula(self, alpha, p, lam, T):
        a = corollary_case_moment(alpha, p, T,
                                  CorollaryCase.EXPONENTIAL_HEAD, lam=lam)
        b = mo.exact_stable_moment(bf.stable(alpha), p, itg.exponential(lam), (0, T))
        assert a == pytest.approx(b, rel=1e-8)

    def test_gamma_factor_past_the_double_range(self):
        # Gamma(201) overflows in each case; the product is taken in logs
        head = corollary_case_moment(0.005, -1.0, 1000.0,
                                     CorollaryCase.POWER_HEAD, theta=0.0)
        tail = corollary_case_moment(0.005, -1.0, 0.001,
                                     CorollaryCase.POWER_TAIL, theta=250.0)
        with mpmath.workdps(30):
            g = mpmath.gamma(201) / mpmath.gamma(2)
            ref_head = g * mpmath.mpf(1000.0) ** -200
            # denom = 0.005 250 - 1 = 1/4, T^(p (1/alpha - theta)) = T^50
            ref_tail = (g / (mpmath.mpf(0.005) * 250 - 1) ** -200
                        * mpmath.mpf(0.001) ** 50)
        assert head == pytest.approx(float(ref_head), rel=1e-13)
        assert tail == pytest.approx(float(ref_tail), rel=1e-13)
        # about 200! ((1 - e^-0.005) / 0.005)^-200 = 1.3e375: +inf
        assert corollary_case_moment(0.005, -1.0, 1.0,
                                     CorollaryCase.EXPONENTIAL_HEAD,
                                     lam=1.0) == math.inf

    def test_product_past_the_double_range(self):
        # Gamma(170) 10^169 overflows; times 0.7^1690 the value is 4.6e211, and
        # at T = 0.1 it is 2.8e-1217, below the least double
        C = CorollaryCase.POWER_TAIL
        v = corollary_case_moment(0.01, -1.69, 0.7, C, theta=1100.0)
        a, p, T, theta = map(mpmath.mpf, (0.01, -1.69, 0.7, 1100.0))
        with mpmath.workdps(30):
            ref = (mpmath.gamma(1 - p / a) / mpmath.gamma(1 - p)
                   / (a * theta - 1) ** (p / a) * T ** (p * (1 / a - theta)))
        assert v == pytest.approx(float(ref), rel=1e-13)
        assert corollary_case_moment(0.01, -1.69, 0.1, C, theta=1100.0) == 0.0

    def test_exponential_scale_where_one_less_the_exponential_rounds_to_zero(self):
        # 1 - e^(-alpha lam T) is 0 in doubles at lam = 1e-20; the value is
        # near Gamma(2) / Gamma(3/2) = 2 / sqrt(pi)
        v = corollary_case_moment(0.5, -0.5, 1.0, CorollaryCase.EXPONENTIAL_HEAD,
                                  lam=1e-20)
        a, p, lam = map(mpmath.mpf, (0.5, -0.5, 1e-20))
        with mpmath.workdps(30):
            ref = (mpmath.gamma(1 - p / a) / mpmath.gamma(1 - p)
                   * (-mpmath.expm1(-a * lam) / (a * lam)) ** (p / a))
        assert v == pytest.approx(float(ref), rel=1e-13)

    def test_exponential_scale_where_alpha_lam_t_underflows(self):
        # alpha lam T = 5e-331 is 0 in doubles: the scale is its limit T, and
        # the value near Gamma(2) / Gamma(3/2) / T
        v = corollary_case_moment(0.5, -0.5, 1e-10, CorollaryCase.EXPONENTIAL_HEAD,
                                  lam=1e-320)
        a, p, lam, T = map(mpmath.mpf, (0.5, -0.5, 1e-320, 1e-10))
        with mpmath.workdps(30):
            ref = (mpmath.gamma(1 - p / a) / mpmath.gamma(1 - p)
                   * (-mpmath.expm1(-a * lam * T) / (a * lam)) ** (p / a))
        assert v == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.parametrize("case, params", [
        (CorollaryCase.POWER_HEAD, {"theta": 1.0}),
        (CorollaryCase.POWER_TAIL, {"theta": 3.0}),
        (CorollaryCase.EXPONENTIAL_HEAD, {"lam": 1.0}),
    ], ids=["power_head", "power_tail", "exp_head"])
    def test_horizon_not_positive_and_finite_is_refused(self, case, params, T):
        with pytest.raises(DomainError):
            corollary_case_moment(0.5, 0.25, T, case, **params)


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

    @pytest.mark.parametrize("p", [0.25, -0.25])
    def test_negative_theta_refused(self, p):
        # every clause for t^-theta states 0 <= theta, at either sign of p
        with pytest.raises(GateViolation) as err:
            mo.select_bound_clause(ST5, p, [0.5, 2], theta=-1.0)
        assert "theta >= 0" in str(err.value)

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
        assert res.verdict is itg.Verdict.FINITE
        assert res.value == pytest.approx(4.0, rel=1e-8)
        res2 = mo.exp_moment_equivalence(ST5, 0.75, 1.0)
        assert res2.verdict is itg.Verdict.INFINITE

    @pytest.mark.parametrize("alpha, p", [(0.3, 0.1), (0.7, 0.6), (0.9, 0.05)])
    def test_stable_values_are_the_closed_form(self, alpha, p):
        # the integral of s^(alpha - p - 1) over (0, 1) is 1 / (alpha - p)
        res = mo.exp_moment_equivalence(bf.stable(alpha), p, 1.0)
        assert res.verdict is itg.Verdict.FINITE
        assert res.value == pytest.approx(1 / (alpha - p), rel=itg.QUAD_RTOL)

    def test_log_family_boundary(self):
        phi = bf.stable_log(0.5, 0.3)          # admissible below p = 0.8
        assert mo.exp_moment_equivalence(phi, 0.75, 1.0).verdict \
            is itg.Verdict.FINITE
        assert mo.exp_moment_equivalence(phi, 0.85, 1.0).verdict \
            is itg.Verdict.INFINITE

    @pytest.mark.parametrize("p", [0.25, 0.75], ids=["finite", "infinite"])
    def test_is_the_criterion_integral(self, p):
        # the equivalence returns the Finiteness of its criterion integral
        # as it is, value, pieces and evaluations included
        res = mo.exp_moment_equivalence(ST5, p, 1.0)
        want = itg.improper_integral(lambda s: ST5.fn(s) / s ** (p + 1.0),
                                     0.0, 1.0, singular_lo=True)
        assert isinstance(res, itg.Finiteness)
        assert (res.verdict, res.value, res.pieces, res.evaluations) == \
            (want.verdict, want.value, want.pieces, want.evaluations)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            mo.exp_moment_equivalence(ST5, 1.5, 1.0)


class TestDefaultGrid:
    @pytest.mark.parametrize("phi_id", ["stable:0.3", "stable:0.5",
                                        "stable:0.7", "gamma"])
    @pytest.mark.parametrize("f_id", ["pow:0.5", "pow:0.9", "exp:1"])
    def test_certified_within_256_cells(self, phi_id, f_id):
        phi, f = bf.parse_phi(phi_id), itg.parse_integrand(f_id)
        times = mo.integral_grid(phi, f, 1.0, None)[1]
        assert len(times) - 1 <= 256
        assert abs(mo.grid_bias(phi, f, times)) <= mo.GRID_BIAS_TOL
        if f_id == "pow:0.5":
            assert len(times) - 1 <= 128

    @staticmethod
    def _doubling_count(phi, f, exact):
        """Cells and bias evaluations of the former rule: the first of 32,
        64, ... cells (at most MAX_CELLS) that certifies."""
        n, evaluations = mo.FIRST_CELLS, 0
        while n < mo.MAX_CELLS:
            evaluations += 1
            times = mo.integral_grid(phi, f, 1.0, 1.0 / n)[1]
            if abs(mo.grid_bias(phi, f, times, exact)) <= mo.GRID_BIAS_TOL:
                break
            n = min(2 * n, mo.MAX_CELLS)
        return n, evaluations

    @pytest.mark.parametrize("phi_id", ["stable:0.3", "stable:0.5", "stable:0.7",
                                        "gamma", "tempered:0.5,1",
                                        "tempered:0.3,2"])
    @pytest.mark.parametrize("f_id", ["pow:0.25", "pow:0.5", "pow:0.9",
                                      "pow:1.2", "exp:1"])
    def test_fewest_certified_cells(self, phi_id, f_id, monkeypatch):
        phi, f = bf.parse_phi(phi_id), itg.parse_integrand(f_id)
        exact = mo._exponent(itg.finiteness_criterion(f, phi, (0.0, 1.0)))
        calls = []
        bias = mo.grid_bias
        monkeypatch.setattr(mo, "grid_bias", lambda *a: calls.append(1) or bias(*a))
        times, grid_bias, certificates = mo.integral_grid(phi, f, 1.0, None)[1:]
        monkeypatch.undo()
        n = len(times) - 1
        assert certificates == len(calls)
        assert grid_bias == mo.grid_bias(phi, f, times, exact)

        def certifies(cells):
            grid = mo.integral_grid(phi, f, 1.0, 1.0 / cells)[1]
            assert len(grid) - 1 == cells
            return abs(mo.grid_bias(phi, f, grid, exact)) <= mo.GRID_BIAS_TOL

        fewest = 16 if f_id.startswith("pow") else 1
        assert certifies(n)
        # the bisection only knows that n - 1 fails; grids of different
        # counts are not nested, so every smaller count is checked here
        assert not any(certifies(cells) for cells in range(fewest, n))
        doubled, doublings = self._doubling_count(phi, f, exact)
        assert n <= doubled
        # any search must evaluate n and n - 1, so below FIRST_CELLS the
        # bisection of (floor, FIRST_CELLS] bounds the count instead of n
        assert certificates <= doublings + math.ceil(
            math.log2(max(n, mo.FIRST_CELLS)))

    @pytest.mark.parametrize("f_id, dt", [("pow:0.5", 1 / 64), ("exp:1", 1 / 8),
                                          ("const:2", None), ("const:2", 1 / 4)])
    def test_every_grid_carries_its_bias(self, f_id, dt):
        # an explicit dt and a constant f take no search, yet the bias of
        # their grid is returned with it, as a float
        phi, f = ST5, itg.parse_integrand(f_id)
        exact = mo._exponent(itg.finiteness_criterion(f, phi, (0.0, 1.0)))
        times, bias, certificates = mo.integral_grid(phi, f, 1.0, dt)[1:]
        assert isinstance(bias, float) and certificates == 0
        assert bias == mo.grid_bias(phi, f, times, exact)

    def test_undetermined_criterion_ends_at_the_cap(self, monkeypatch):
        # a nan integral of phi(f) gives a nan bias, which never certifies
        monkeypatch.setattr(mo, "finiteness_criterion",
                            lambda *a: itg.Finiteness(itg.Verdict.UNDETERMINED))
        times, bias, certificates = mo.integral_grid(
            ST5, itg.power_singular(0.5), 1.0, None)[1:]
        assert len(times) - 1 == mo.MAX_CELLS and math.isnan(bias)
        # 32, 64, ..., 4096 and the cap
        assert certificates == 9

    def test_bias_of_one_cell(self):
        # t^-1/2 on (0, 1]: the cell mean is 2, and int phi(f) = 4/3 for
        # phi = s^(1/2)
        bias = mo.grid_bias(ST5, itg.power_singular(0.5), np.array([0.0, 1.0]))
        assert bias == pytest.approx(math.exp(-math.sqrt(2)) - math.exp(-4 / 3),
                                     rel=1e-12)

    def test_explicit_dt_is_honoured(self):
        assert len(mo.integral_grid(ST5, itg.exponential(1.0), 1.0, 1 / 200)[1]) == 201
        assert len(mo.integral_grid(ST5, itg.power_singular(0.5), 1.0,
                                    1 / 300)[1]) == 301

    def test_uncertifiable_grid_stops_at_the_cap(self, monkeypatch):
        # no grid certifies a zero tolerance
        monkeypatch.setattr(mo, "GRID_BIAS_TOL", 0.0)
        phi, f = bf.stable(0.7), itg.power_singular(0.9)
        times = mo.integral_grid(phi, f, 1.0, None)[1]
        assert len(times) - 1 == mo.MAX_CELLS
        assert abs(mo.grid_bias(phi, f, times)) > mo.GRID_BIAS_TOL

    @pytest.mark.parametrize("phi_id,f_id,cells", [
        ("stable:0.7", "pow:1.2", 256), ("stable:0.5", "pow:1.5", 512)])
    def test_nonintegrable_first_cell_certified(self, phi_id, f_id, cells):
        # theta >= 1: the first cell takes the inward weight f(times[1])
        phi, f = bf.parse_phi(phi_id), itg.parse_integrand(f_id)
        times = mo.integral_grid(phi, f, 1.0, None)[1]
        assert len(times) - 1 <= cells
        assert abs(mo.grid_bias(phi, f, times)) <= mo.GRID_BIAS_TOL

    def test_inward_weight_stays_finite_at_the_cap(self):
        # alpha theta = 0.975 < 1: the integral converges, and the weight
        # t_1^-6.5 of the finest graded grid must not overflow
        phi, f = bf.stable(0.15), itg.power_singular(6.5)
        times = mo.integral_grid(phi, f, 1.0, 1.0 / mo.MAX_CELLS)[1]
        assert len(times) - 1 == mo.MAX_CELLS
        assert np.all(np.isfinite(itg.cell_means(f, times)))
        assert math.isfinite(mo.grid_bias(phi, f, times))


@pytest.mark.parametrize("alpha", [0.5, 0.7])
@pytest.mark.parametrize("p", [0.25, 0.0, -1.0])
def test_mc_moment_of_an_infinite_integral_is_not_drawn(alpha, p, monkeypatch):
    # t^-2 on (0, 1] is a.s. infinite once alpha theta >= 1; the moment is
    # that of an all-+inf sample
    def no_draw(*args, **kwargs):
        raise AssertionError("made a sampler for an a.s. infinite integral")

    monkeypatch.setattr(mo, "grid_sampler", no_draw)
    f = itg.power_singular(2.0)
    est = mo.mc_moment(bf.stable(alpha), p, f, 1.0, 100, 3)
    assert est.mean == mo.exact_stable_moment(bf.stable(alpha), p, f, (0.0, 1.0))
    assert est.n_samples == 100


@pytest.mark.parametrize("N", [2, 5000])
def test_cell_means_once_per_grid(N, monkeypatch):
    # dt fixes the grid without a search: one bias evaluation and one set of
    # Monte Carlo weights, whatever the number of blocks
    calls = []
    for module in (itg, mo):
        def counted(f, times, inner=module.cell_means):
            calls.append(len(times))
            return inner(f, times)

        monkeypatch.setattr(module, "cell_means", counted)
    mo.char_functional_mc(ST5, itg.power_singular(0.5), 1.0, N, 4, dt=1 / 64)
    assert calls == [65, 65]


@pytest.mark.parametrize("run", [
    lambda f: mo.mc_moment(ST5, 0.3, f, 1.0, 100, 3),
    lambda f: mo.char_functional_mc(ST5, f, 1.0, 100, 3),
    lambda f: mo.integral_summary(ST5, f, mo.integral_grid(ST5, f, 1.0, None)[1],
                                  100, 3),
], ids=["mc_moment", "char_functional_mc", "integral_summary"])
def test_infinite_integral_runs_the_engine_once_without_drawing(run, monkeypatch):
    entered = []

    def counted(*args, inner=mo.mc.run_mc, **kwargs):
        entered.append(args[1])
        return inner(*args, **kwargs)

    def no_draw(*args, **kwargs):
        raise AssertionError("made a sampler for an a.s. infinite integral")

    monkeypatch.setattr(mo.mc, "run_mc", counted)
    monkeypatch.setattr(mo, "grid_sampler", no_draw)
    run(itg.power_singular(2.0))
    assert entered == [100]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("phi, f, N, seed, pinned", [
    ("stable:0.3", "pow:0.5", 2000, 7, (0.29941478415548034, 0.00819825734582708)),
    ("tempered:0.3,2", "exp:1", 20000, 8, (0.8996584237748095, 0.0008448794350324363)),
], ids=["kanter", "tilting"])
def test_multi_block_estimate_pinned(phi, f, N, seed, pinned, workers, monkeypatch):
    # 32 blocks draw from one sampler of 74 (Kanter) or 8 (tilting) cells,
    # with blocks of over 4096 doubles, so at two workers on two threads: a
    # work array left stale by one block moves the estimate from the second
    # block on.  Fixed by the streams, the samplers and the default grids
    monkeypatch.setenv("SUBSING_WORKERS", workers)
    est = mo.char_functional_mc(bf.parse_phi(phi), itg.parse_integrand(f),
                                1.0, N, seed)
    assert (est.mean, est.std_error) == pinned


@pytest.mark.parametrize("workers", ["1", "2"])
def test_work_arrays_die_with_the_run(workers, monkeypatch):
    # the sampler's work arrays, the calling thread's and the pool's, go
    # with the run: nothing that a block drew into outlives it
    refs = []

    def take(self, shape, count, inner=sub._Work.take):
        arrays = inner(self, shape, count)
        refs.extend(weakref.ref(a) for a in arrays)
        return arrays

    monkeypatch.setattr(sub._Work, "take", take)
    monkeypatch.setenv("SUBSING_WORKERS", workers)
    mo.char_functional_mc(bf.stable(0.3), itg.power_singular(0.5), 1.0, 2000, 7)
    assert refs and all(ref() is None for ref in refs)


def test_integral_summary_keeps_every_value_under_many_workers(monkeypatch):
    # the blocks append their values to one list from every worker thread; a
    # lost append would change n, the finite fraction or the median
    f = itg.power_singular(0.5)
    times = mo.integral_grid(ST5, f, 1.0, None)[1]
    row = mo.integral_summary(ST5, f, times, 3000, 6)
    monkeypatch.setenv("SUBSING_WORKERS", "6")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = [mo.integral_summary(ST5, f, times, 3000, 6) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert rows == [row] * 3


def test_worker_pool_preserves_results(monkeypatch):
    est1 = mo.mc_moment(ST5, 0.25, UNIT, 1.0, 8000, 5)
    monkeypatch.setenv("SUBSING_WORKERS", "4")
    est2 = mo.mc_moment(ST5, 0.25, UNIT, 1.0, 8000, 5)
    assert est1 == est2


def test_median_of_means_se_definition():
    from subsing.mc import Moments, estimate_from_blocks
    means = np.arange(32, dtype=float)
    (est,) = estimate_from_blocks([Moments(10, m, 0.0) for m in means],
                                  "median_of_means")
    assert est.mean == pytest.approx(float(np.median(means)))
    assert est.std_error == pytest.approx(
        math.sqrt(math.pi / 64) * float(np.std(means, ddof=1)))


def test_bound_rhs_stable_matches_scaling():
    # phi^{-1}(1/T) = T^{-1/alpha}: rhs of the bare-moment bound is T^{p/alpha}
    for T in (1.0, 2.0, 8.0):
        assert mo.bound_rhs(ST5, 0.25, T, theta=0.0) == pytest.approx(
            T ** 0.5, rel=1e-9)


def test_only_moments_states_a_gate():
    # every admissibility condition is stated in moments.py; spde and the
    # other modules ask it for theirs instead of raising GateViolation
    package = pathlib.Path(mo.__file__).parent
    raisers = [m.name for m in sorted(package.glob("*.py"))
               if "GateViolation(" in m.read_text()]
    assert raisers == ["errors.py", "moments.py"]
