import math

import numpy as np
import pytest
from scipy import stats

from subsing import bernstein as bf
from subsing import spde
from subsing.errors import (CapabilityError, DomainError, GateViolation,
                            PreconditionError)
from subsing.rng import stream
from subsing.subordinator import grid_increments, time_grid

ST6 = bf.stable(0.6)
GAMMA = bf.gamma_exponent()


def diagonal_system(n=4, gammas=None, q=None, x0=None, drift=None,
                    drift_bound=0.0, drift_lip=0.0, a4=None):
    gammas = np.asarray(gammas if gammas is not None
                        else np.arange(1, n + 1), dtype=float)
    q = q if q is not None else spde.zero_q(n)
    x0 = np.asarray(x0 if x0 is not None else np.zeros(n), dtype=float)
    return spde.GalerkinSystem(n, gammas, drift or spde.zero_drift,
                               drift_bound, drift_lip, q, x0, a4_constants=a4)


class TestSemigroupFacts:
    def test_deterministic_part_is_exact(self):
        gam = np.array([1.0, 2.0, 3.0, 5.0])
        x0 = np.array([1.0, -0.5, 0.2, 0.1])
        system = diagonal_system(4, gam, x0=x0)
        path = spde.simulate(system, ST6, 1.0, 1 / 64, seed=1)
        exact = np.exp(-np.outer(path.times, gam)) * x0
        assert np.abs(path.state - exact).max() < 1e-13

    def test_fractional_decay_envelope(self):
        # max_k gamma_k^theta e^(-t gamma_k) <= (theta/e)^theta t^-theta
        gam = np.arange(1, 65, dtype=float) ** 1.3
        for theta in (0.25, 0.5, 1.0):
            c = spde.semigroup_theta_constant(theta)
            for t in np.geomspace(1e-3, 10, 25):
                lhs = np.max(gam ** theta * np.exp(-t * gam))
                assert lhs <= c * t ** -theta * (1 + 1e-12)

    def test_gap_inequalities(self):
        gam = np.array([2.0, 3.0, 7.0])
        x = np.array([0.3, -1.2, 0.4])
        theta = 0.4
        assert spde.fractional_power_norm(gam, theta, x) >= \
            gam[0] ** theta * np.linalg.norm(x) - 1e-12
        for t in (0.1, 1.0, 3.0):
            assert np.max(np.exp(-t * gam)) == pytest.approx(
                math.exp(-gam[0] * t))


class TestConditionalSampling:
    def test_ito_isometry_on_frozen_path(self):
        q, gamma1, T, dt = 0.7, 2.0, 1.0, 1 / 128
        system = diagonal_system(1, [gamma1], q=spde.constant_diagonal_q([q]))
        times = time_grid(T, dt)
        d_sub = grid_increments(ST6, times, stream(5, 0), 1)[0]
        M = 40_000
        dw = stream(5, 1).standard_normal((M, len(times) - 1, 1))
        _, Z = spde.advance(system, times, np.tile(d_sub, (M, 1)), dw)
        target = q * q * float(
            np.sum(np.exp(-2 * gamma1 * (T - times[:-1])) * d_sub))
        vals = Z[:, -1, 0] ** 2
        se = vals.std() / math.sqrt(M)
        assert abs(vals.mean() - target) <= 3 * se
        # conditionally on the clock the endpoint is exactly Gaussian
        zstat = Z[:, -1, 0] / math.sqrt(target)
        assert stats.kstest(zstat, "norm").pvalue > 0.01

    def test_two_stage_equals_joint(self):
        # freezing the clock and averaging the conditional second moment
        # agrees with the joint simulation
        q, gamma1, T, dt = 0.5, 1.5, 1.0, 1 / 64
        system = diagonal_system(1, [gamma1], q=spde.constant_diagonal_q([q]))
        times = time_grid(T, dt)
        K = len(times) - 1
        N = 30_000
        d_sub = grid_increments(GAMMA, times, stream(8, 0), N)
        dw = stream(8, 1).standard_normal((N, K, 1))
        _, Z = spde.advance(system, times, d_sub, dw)
        joint = Z[:, -1, 0] ** 2
        weights = np.exp(-2 * gamma1 * (T - times[:-1]))
        nested = q * q * (d_sub * weights).sum(axis=1)
        se = math.hypot(joint.std() / math.sqrt(N), nested.std() / math.sqrt(N))
        assert abs(joint.mean() - nested.mean()) <= 3 * se

    def test_simulation_is_deterministic(self):
        system = diagonal_system(3, [1.0, 2.0, 3.0],
                                 q=spde.constant_diagonal_q([0.1, 0.2, 0.3]))
        a = spde.simulate(system, ST6, 1.0, 1 / 32, seed=9)
        b = spde.simulate(system, ST6, 1.0, 1 / 32, seed=9)
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.subordinator, b.subordinator)

    def test_refinement_consistency_common_noise(self):
        # aggregate fine-grid noise onto the coarse grid: the statistic moves
        # by less than its standard error
        q = spde.constant_diagonal_q([0.4, 0.3])
        system = diagonal_system(2, [1.0, 3.0], q=q)
        T, K = 1.0, 256
        fine = time_grid(T, T / K)
        coarse = fine[::2]
        N = 4000
        d_fine = grid_increments(ST6, fine, stream(12, 0), N)
        w_fine = stream(12, 1).standard_normal((N, K, 2))
        scaled = w_fine * np.sqrt(d_fine)[:, :, None]
        d_coarse = d_fine[:, ::2] + d_fine[:, 1::2]
        inc_coarse = scaled[:, ::2] + scaled[:, 1::2]
        w_coarse = inc_coarse / np.sqrt(np.maximum(d_coarse, 1e-300))[:, :, None]
        _, Zf = spde.advance(system, fine, d_fine, w_fine)
        _, Zc = spde.advance(system, coarse, d_coarse, w_coarse)
        vf = np.linalg.norm(Zf, axis=-1).max(axis=1) ** 2
        vc = np.linalg.norm(Zc, axis=-1).max(axis=1) ** 2
        se = vf.std() / math.sqrt(N)
        assert abs(vf.mean() - vc.mean()) <= se


class TestMaximalAndSmallBall:
    def test_conditional_maximal_bound(self):
        # normalized frozen clock, unit diffusion bound: mean sup^2 <= 9
        system = diagonal_system(4, q=spde.constant_diagonal_q([0.5] * 4))
        times = time_grid(1.0, 1 / 128)
        raw = grid_increments(ST6, times, stream(3, 0), 1)[0]
        d_sub = raw / raw.sum()              # ell_T = 1
        est, bound = spde.conditional_maximal_check(system, times, d_sub,
                                                    10_000, 4)
        assert bound == pytest.approx(9.0 * system.diffusion.hs_bound ** 2)
        assert est.mean <= bound + 3 * est.std_error

    def test_maximal_scan_gate(self):
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        with pytest.raises(GateViolation) as err:
            spde.maximal_inequality_scan(system, ST6, 1.5, [1, 2], 100, 5,
                                         dt=1 / 16)
        assert "liminf" in str(err.value)

    def test_maximal_scan_nondecreasing_in_horizon(self):
        # every horizon reads the running maximum of the same paths, so even
        # horizons one step apart give ordered means
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        rep = spde.maximal_inequality_scan(system, ST6, 0.5,
                                           [0.75, 0.5, 0.625, 0.5625, 0.6875],
                                           100, 3, dt=1 / 16)
        assert rep.T_grid == (0.5, 0.5625, 0.625, 0.6875, 0.75)
        means = [e.mean for e in rep.estimates]
        assert all(b >= a for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("scan", ["maximal", "longrun", "convmom"])
    @pytest.mark.parametrize("horizons", [[1.5, 2.0], [0.0, 2.0], [-1.0, 2.0],
                                          [], [math.nan, 2.0]])
    def test_bad_horizon_is_a_domain_error(self, scan, horizons):
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        with pytest.raises(DomainError):
            if scan == "maximal":
                spde.maximal_inequality_scan(system, ST6, 0.5, horizons, 10, 5,
                                             dt=1 / 3)
            elif scan == "longrun":
                spde.longrun_moment_scan(system, ST6, 0.5, 0.25, horizons, 10,
                                         5, dt=1 / 3)
            else:
                spde.convolution_moment_scan(system, ST6, 0.5, 0.25, horizons,
                                             10, 5, dt=1 / 3)

    def test_small_ball_zero_diffusion(self):
        system = diagonal_system(3)
        res = spde.small_ball(system, bf.stable(0.5), 0.5, 0.25, 500, 7,
                              dt=1 / 64)
        assert res.probability == 1.0

    def test_small_ball_domain(self):
        system = diagonal_system(2)
        with pytest.raises(DomainError):
            spde.small_ball(system, ST6, 1.5, 1.0, 10, 3, dt=1 / 16)

    def test_no_paths_is_a_domain_error(self):
        with pytest.raises(DomainError):
            spde.small_ball(diagonal_system(2), ST6, 0.5, 1.0, 0, 3, dt=1 / 16)

    def test_small_ball_monotone_in_horizon(self):
        # the event is over a shrinking window, so the frequency grows as the
        # horizon shrinks; couple the runs through one simulation
        system = diagonal_system(2, [1.0, 2.0],
                                 q=spde.constant_diagonal_q([0.6, 0.4]))
        times = time_grid(1.0, 1 / 256)
        N = 4000
        d_sub = grid_increments(bf.stable(0.5), times, stream(19, 0), N)
        dw = stream(19, 1).standard_normal((N, len(times) - 1, 2))
        _, Z = spde.advance(system, times, d_sub, dw)
        sup = np.linalg.norm(Z, axis=-1)
        delta = 0.5
        freqs = []
        for frac in (1.0, 0.5, 0.25, 0.125):
            j = int(round(frac * (len(times) - 1)))
            freqs.append((sup[:, : j + 1].max(axis=1) < delta).mean())
        assert all(b >= a for a, b in zip(freqs, freqs[1:]))


class TestConvolutionScan:
    def test_gate_violations_name_conditions(self):
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        with pytest.raises(GateViolation) as err:
            spde.convolution_moment_scan(system, ST6, 1.3, 0.0, [0.5], 100, 5,
                                         dt=1 / 16)
        assert "inf" in str(err.value)
        with pytest.raises(GateViolation) as err:
            spde.convolution_moment_scan(system, ST6, 0.5, 1.0, [0.5], 100, 5,
                                         dt=1 / 16)
        assert "theta" in str(err.value)

    def test_zero_diffusion_vanishes(self):
        system = diagonal_system(3)
        rep = spde.convolution_moment_scan(system, ST6, 0.5, 0.25,
                                           [0.25, 0.5, 1.0], 200, 5, dt=1 / 32)
        assert all(e.mean == 0.0 for e in rep.estimates)

    def test_small_time_ratios_bounded(self):
        system = diagonal_system(4, q=spde.constant_diagonal_q([0.5, 0.3, 0.2, 0.1]))
        t_grid = [2.0 ** -k for k in range(6, -1, -1)]
        rep = spde.convolution_moment_scan(system, ST6, 0.5, 0.0, t_grid,
                                           2000, 11, dt=2 ** -9)
        assert math.isfinite(rep.max_ratio)
        assert max(rep.ratios) / min(rep.ratios) <= 5.0


class TestLongRun:
    def test_deterministic_average_matches_quadrature(self):
        from scipy.integrate import quad
        gam = np.array([1.0, 2.0])
        x0 = np.array([1.0, 0.5])
        system = diagonal_system(2, gam, x0=x0)
        p, theta = 0.5, 0.25
        for horizons in ([2.0], [1.0, 2.0, 3.0]):
            rep = spde.longrun_moment_scan(system, ST6, p, theta, horizons, 1,
                                           3, dt=2 ** -10)
            assert rep.horizons == tuple(horizons)
            for T, est in zip(rep.horizons, rep.averages):
                oracle, _ = quad(lambda t: np.linalg.norm(
                    gam ** theta * np.exp(-t * gam) * x0) ** p, 1.0, T + 1.0)
                assert est.mean == pytest.approx(oracle / T, abs=1e-6)

    def test_bounded_over_growing_horizons(self):
        system = diagonal_system(3, q=spde.constant_diagonal_q([0.4, 0.2, 0.1]))
        rep = spde.longrun_moment_scan(system, ST6, 0.5, 0.25, [4, 8], 400, 5,
                                       dt=1 / 32)
        assert all(math.isfinite(e.mean) for e in rep.averages)

    def test_zero_start_stationary_in_horizon(self):
        # fast relaxation makes the convolution moments flat across [1, T+1]
        system = diagonal_system(2, [4.0, 8.0],
                                 q=spde.constant_diagonal_q([0.3, 0.2]))
        rep = spde.longrun_moment_scan(system, GAMMA, 0.5, 0.25, [2, 4],
                                       3000, 6, dt=1 / 32)
        a, b = rep.averages
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error)


class TestController:
    def make_system(self, lip=0.0, bound=0.0, drift=None, gamma1=1.0):
        return diagonal_system(
            1, [gamma1], q=spde.constant_diagonal_q([1.0], invertible=True),
            x0=np.array([1.0]), drift=drift, drift_bound=bound, drift_lip=lip,
            a4=(1.0, 0.25))

    def test_zero_drift_closed_form(self):
        system = self.make_system()
        K = 256
        times = np.linspace(0.0, 0.5, K + 1)
        ell = np.linspace(0.0, 1.0, K + 1)
        res = spde.synthesize_null_controller(system, times, ell)
        assert res.converged
        assert abs(res.phi_terminal[0]) <= 1e-10
        assert abs(res.y_terminal[0]) <= 1e-10
        # u at the subordinated clock: -(x/ell_T) cumulative e^{-gamma t} dell
        expect = -np.concatenate(([0.0], np.cumsum(
            np.exp(-times[:-1] * system.eigenvalues[0]) * np.diff(ell))))
        assert np.allclose(res.control[:, 0], expect, atol=1e-12)

    def test_contraction_envelope(self):
        lip, T = 1.0, 0.5

        def drift(y):
            return np.clip(-(y - 1.0), -2.0, 2.0)

        system = self.make_system(lip=lip, bound=2.0, drift=drift, gamma1=0.1)
        K = 256
        times = np.linspace(0.0, T, K + 1)
        ell = np.concatenate(([0.0], 0.99 + 0.01 * np.linspace(1e-6, 1.0, K)))
        res = spde.synthesize_null_controller(system, times, ell, max_iter=8)
        h = np.array(res.history)
        rate = lip * T
        # one-sided inherited envelope: d_n <= rate^n d_0, and the fitted
        # log-slope never exceeds log(rate)
        for n in range(len(h)):
            assert h[n] <= rate ** n * h[0] * 1.02
        k = np.arange(len(h))
        slope = np.polyfit(k, np.log(h), 1)[0]
        assert slope <= math.log(rate) + 0.1
        assert abs(res.y_terminal[0]) <= system.drift_bound * T + 1e-9

    def test_preconditions(self):
        system = self.make_system(lip=4.0, bound=1.0,
                                  drift=lambda y: np.clip(-4 * y, -1, 1))
        times = np.linspace(0.0, 0.5, 65)   # 0.5 >= 1/lip
        ell = np.linspace(0.0, 1.0, 65)
        with pytest.raises(PreconditionError):
            spde.synthesize_null_controller(system, times, ell)

    def test_requires_invertible_diffusion(self):
        system = diagonal_system(1, [1.0],
                                 q=spde.constant_diagonal_q([1.0]),
                                 x0=np.array([1.0]), a4=(1.0, 0.25))
        times = np.linspace(0.0, 0.5, 17)
        ell = np.linspace(0.0, 1.0, 17)
        with pytest.raises(CapabilityError):
            spde.synthesize_null_controller(system, times, ell)

    def test_a4_driver_integrability(self):
        assert spde.a4_driver_integrability(bf.stable(0.5), 0.25)
        assert not spde.a4_driver_integrability(bf.stable(0.5), 1.2)
        system = self.make_system()          # declared delta = 0.25
        times = np.linspace(0.0, 0.5, 33)
        ell = np.linspace(0.0, 1.0, 33)
        res = spde.synthesize_null_controller(system, times, ell,
                                              driver=bf.stable(0.5))
        assert res.converged
        bad = diagonal_system(
            1, [1.0], q=spde.constant_diagonal_q([1.0], invertible=True),
            x0=np.array([1.0]), a4=(2.0, 1.5))
        with pytest.raises(PreconditionError):
            spde.synthesize_null_controller(bad, times, ell,
                                            driver=bf.stable(0.5))

    def test_a4_probe_failure(self):
        # declared constants cannot dominate an exploding inverse
        system = diagonal_system(
            1, [1.0], q=spde.constant_diagonal_q([1.0], invertible=True),
            x0=np.array([1.0]), a4=(1e-9, 0.0))
        with pytest.raises(PreconditionError):
            spde.verify_a4(system)

    def test_clock_validation(self):
        system = self.make_system()
        times = np.linspace(0.0, 0.5, 17)
        with pytest.raises(DomainError):
            spde.synthesize_null_controller(system, times, times * 0.0)


class TestGalerkin:
    def coupled_system(self, n=8):
        k = np.arange(1, n + 1, dtype=float)
        gam = k ** 1.4
        x0 = k ** -1.5
        active = (k <= 4).astype(float)
        w = 0.3 * active * k ** -1.0

        def drift(y):
            return w[: y.shape[-1]] * np.tanh(y)

        def entries(y):
            s = 0.4 * active[: y.shape[-1]] * k[: y.shape[-1]] ** -1.0
            return s * (0.5 + 0.5 * np.tanh(y))

        q = spde.DiagonalQ(entries, 0.5, 0.4, invertible=False)
        return spde.GalerkinSystem(n, gam, drift, float(np.linalg.norm(w)),
                                   0.3, q, x0)

    def test_reference_dimension_is_exact(self):
        system = self.coupled_system()
        rep = spde.galerkin_error(system, [8], GAMMA, 0.5, 1 / 64, 10, seed=3)
        assert rep.sup_sq_error[0].mean == 0.0

    def test_decoupled_error_is_semigroup_tail(self):
        # drift and diffusion live in the first 4 coordinates; for m >= 4 the
        # truncation error is exactly the tail of the deterministic decay
        system = self.coupled_system()
        x0 = np.asarray(system.x0)
        rep = spde.galerkin_error(system, [4, 6], GAMMA, 0.5, 1 / 64, 8, seed=5)
        for m, est in zip(rep.truncations, rep.sup_sq_error):
            expected = float(np.sum(x0[m:] ** 2))     # attained at t = 0
            assert est.mean == pytest.approx(expected, rel=1e-12)
            # zero-variance data up to one-pass cancellation noise
            assert est.std_error <= 1e-9

    def test_errors_decrease(self):
        system = self.coupled_system()
        rep = spde.galerkin_error(system, [1, 2, 4], GAMMA, 0.5, 1 / 64, 50,
                                  seed=7)
        means = [e.mean for e in rep.sup_sq_error]
        assert means[0] > means[1] > means[2]

    def test_dimension_precondition(self):
        system = self.coupled_system()
        with pytest.raises(DomainError):
            spde.galerkin_error(system, [16], GAMMA, 0.5, 1 / 64, 4, seed=3)


def test_empty_system_is_a_domain_error():
    with pytest.raises(DomainError):
        spde.GalerkinSystem(0, np.empty(0), spde.zero_drift, 0.0, 0.0,
                            spde.zero_q(0), np.empty(0))


def test_validate_system_flags_bad_bounds():
    def drift(y):
        return np.ones_like(y)

    system = diagonal_system(3, drift=drift, drift_bound=0.1, drift_lip=0.0)
    with pytest.raises(PreconditionError):
        spde.validate_system(system)
