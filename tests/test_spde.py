import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from subsing import bernstein as bf
from subsing import mc, moments, spde
from subsing.errors import (CapabilityError, DomainError, GateViolation,
                            NumericError, PreconditionError)
from subsing.integrate import power_singular
from subsing.mc import CHUNK_DOUBLES, Moments, estimate_from_blocks
from subsing.rng import stream
from subsing.subordinator import grid_increments, time_grid

ST6 = bf.stable(0.6)
GAMMA = bf.gamma_exponent()


def diagonal_system(n=4, gammas=None, q=None, x0=None, drift=None,
                    drift_bound=0.0, drift_lip=0.0, a4=None):
    gammas = np.asarray(gammas if gammas is not None
                        else np.arange(1, n + 1), dtype=float)
    q = q if q is not None else spde.constant_diagonal_q(np.zeros(n))
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

    def test_gap_inequalities(self):
        gam = np.array([2.0, 3.0, 7.0])
        for t in (0.1, 1.0, 3.0):
            assert np.max(np.exp(-t * gam)) == pytest.approx(
                math.exp(-gam[0] * t))


@pytest.mark.parametrize("n", [1, 8, 64])
def test_norms_in_place_match_linalg_norm(n):
    # entries spread over ten orders of magnitude, so a different summation
    # order would show in the last bits
    rng = stream(n, 0)
    storage = rng.standard_normal((9, 5, n)) * np.exp(rng.uniform(-12, 12, (9, 5, n)))
    for a in (storage.copy(), np.moveaxis(storage.copy(), 0, 1)):
        want = np.linalg.norm(a, axis=-1)
        got = spde._norms_in_place(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestConditionalSampling:
    def test_ito_isometry_on_frozen_path(self):
        q, gamma1, T, dt = 0.7, 2.0, 1.0, 1 / 128
        system = diagonal_system(1, [gamma1], q=spde.constant_diagonal_q([q]))
        times = time_grid(T, dt)
        d_sub = grid_increments(ST6, times, stream(5, 0), 1)[0]
        M = 40_000
        dw = stream(5, 1).standard_normal((M, len(times) - 1, 1))
        Z = spde.advance(system, times, np.tile(d_sub, (M, 1)), dw,
                         path="convolution")
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
        Z = spde.advance(system, times, d_sub, dw, path="convolution")
        joint = Z[:, -1, 0] ** 2
        weights = np.exp(-2 * gamma1 * (T - times[:-1]))
        nested = q * q * (d_sub * weights).sum(axis=1)
        se = math.hypot(joint.std() / math.sqrt(N), nested.std() / math.sqrt(N))
        assert abs(joint.mean() - nested.mean()) <= 3 * se

    @pytest.mark.parametrize("driver", [ST6, GAMMA])
    def test_simulation_draws_the_clock_of_stream_zero(self, driver):
        # the clock of chunk 0 of every scan, and of `spde control`
        system = diagonal_system(2, [1.0, 2.0],
                                 q=spde.constant_diagonal_q([0.3, 0.2]))
        times = time_grid(1.0, 1 / 32)
        path = spde.simulate(system, driver, 1.0, 1 / 32, seed=9)
        inc = grid_increments(driver, times, stream(9, 0), 1)[0]
        assert np.array_equal(path.subordinator,
                              np.concatenate(([0.0], np.cumsum(inc))))

    @pytest.mark.parametrize("driver", [ST6, GAMMA])
    def test_simulation_is_the_one_path_run(self, driver):
        # the clock, X and Z that advance makes of the draws which a
        # one-path Monte Carlo run hands its statistic, bit for bit
        system = TestTimeMajorStepping().state_dependent_system(n=3)
        times = time_grid(1.0, 1 / 32)
        handed = []

        def statistic(d_sub, dw):
            handed.append((d_sub.copy(), dw.copy()))
            return d_sub.sum(axis=1)

        spde._mc_paths(system, driver, times, 1, 9, statistic)
        [(d_sub, dw)] = handed
        path = spde.simulate(system, driver, 1.0, 1 / 32, seed=9)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.subordinator,
                              np.concatenate(([0.0], np.cumsum(d_sub[0]))))
        for got, name in ((path.state, "state"),
                          (path.convolution, "convolution")):
            want = spde.advance(system, times, d_sub, dw, path=name)[0]
            assert np.array_equal(got, want)

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
        d_coarse, w_coarse = spde.coarsen(d_fine, w_fine)
        Zf = spde.advance(system, fine, d_fine, w_fine, path="convolution")
        Zc = spde.advance(system, coarse, d_coarse, w_coarse,
                          path="convolution")
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

    def test_conditional_maximal_refuses_increments_off_the_grid(self):
        times = time_grid(1.0, 1 / 8)
        with pytest.raises(DomainError, match="match the grid"):
            spde.conditional_maximal_check(diagonal_system(2), times,
                                           np.ones(len(times)), 10, 1)

    def test_conditional_maximal_ignores_worker_count(self, monkeypatch):
        # 600 replicas on 32 cells of 4 modes are three chunks of at most
        # 256, which two workers share at a threshold of 0 doubles
        system = diagonal_system(4, q=spde.constant_diagonal_q([0.5] * 4))
        times = time_grid(1.0, 1 / 32)
        d_sub = grid_increments(ST6, times, stream(3, 0), 1)[0]
        monkeypatch.setattr(mc, "THREAD_DOUBLES", 0)
        threads = threading.active_count()
        results = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SUBSING_WORKERS", workers)
            results.append(spde.conditional_maximal_check(system, times, d_sub,
                                                          600, 4))
            assert threading.active_count() == threads
        assert results[0] == results[1]

    def test_maximal_scan_gate(self):
        # p/2 = 0.75 is above every doubling index of stable(0.6); horizons
        # from 1 on take the stationary gate, shorter ones the small-time gate
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        for horizons, index in (([1, 2], "liminf_{s->0}"), ([0.5, 1], "inf_{s>0}")):
            with pytest.raises(GateViolation) as err:
                spde.maximal_inequality_scan(system, ST6, 1.5, horizons, 100, 5,
                                             dt=1 / 16)
            assert f"p/2 < log2({index} phi(2s)/phi(s))" in str(err.value)

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

    def test_one_level_maximal_is_the_plain_estimate(self):
        # 0.5625 is 9 cells of 1/16: no coarser grid holds every horizon, so
        # the one level is today's plain run, bit for bit
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        horizons = [0.5, 0.5625, 0.625, 0.6875, 0.75]
        rep = spde.maximal_inequality_scan(system, ST6, 0.5, horizons, 100, 3,
                                           dt=1 / 16)
        times = time_grid(0.75, 1 / 16)

        def statistic(d_sub, dw):
            Z = spde.advance(system, times, d_sub, dw, path="convolution")
            running = np.maximum.accumulate(spde._norms_in_place(Z), axis=1)
            return running[:, [8, 9, 10, 11, 12]] ** 0.5

        assert len(rep.levels) == 1
        assert rep.estimates == tuple(spde._mc_paths(system, ST6, times, 100, 3,
                                                     statistic))

    def test_multilevel_maximal_is_the_sum_of_its_levels(self):
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        rep = spde.maximal_inequality_scan(system, ST6, 0.5, [0.5, 1.0], 300, 3,
                                           dt=1 / 16)
        assert [(lv.dt, lv.moments.count) for lv in rep.levels] == [
            (0.5, 300), (0.25, 150), (0.125, 75), (0.0625, 38)]
        for h, est in enumerate(rep.estimates):
            col = [estimate_from_blocks([lv.moments])[h] for lv in rep.levels]
            assert est.method == "multilevel" and est.n_samples == 563
            assert est.mean == sum(e.mean for e in col)
            assert est.std_error == math.sqrt(sum(e.std_error ** 2 for e in col))

    def test_multilevel_maximal_ignores_worker_count(self, monkeypatch):
        # four levels; level 0 is two chunks; at a threshold of 0 doubles
        # two workers share the tasks
        system = diagonal_system(4, q=spde.constant_diagonal_q([0.5] * 4))
        monkeypatch.setattr(mc, "THREAD_DOUBLES", 0)
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SUBSING_WORKERS", workers)
            rep = spde.maximal_inequality_scan(system, ST6, 0.5, [0.5, 1, 2],
                                               300, 5, dt=1 / 16)
            runs.append((rep.estimates, [
                (lv.dt, lv.moments.count, estimate_from_blocks([lv.moments]),
                 lv.moments.mean.tolist(), lv.moments.m2.tolist())
                for lv in rep.levels]))
        assert runs[0] == runs[1]

    def test_level_counts_and_streams_follow_paths_dt_and_horizons(self, monkeypatch):
        # whatever the seed and the driver: the same streams, each drawing
        # the same paths on the same grid
        system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
        records = []
        for driver, seed in ((ST6, 1), (GAMMA, 2), (ST6, 7)):
            drawn = []

            def recorded_stream(seed, index, drawn=drawn):
                drawn.append(index)
                return stream(seed, index)

            def recorded_draw(driver, times, rng, m, drawn=drawn):
                drawn.append((m, len(times) - 1))
                return grid_increments(driver, times, rng, m)

            monkeypatch.setattr(spde, "stream", recorded_stream)
            monkeypatch.setattr(spde, "grid_increments", recorded_draw)
            spde.maximal_inequality_scan(system, driver, 0.5, [1, 2], 600, seed,
                                         dt=1 / 8)
            pairs = sorted(zip(drawn[::2], drawn[1::2]))
            records.append(pairs)
        assert records[0] == records[1] == records[2]
        # levels at steps 1, 1/2, 1/4, 1/8: 600, 300, 150 and 75 paths
        assert records[0] == [(0, (256, 2)), (1, (256, 2)), (2, (88, 2)),
                              ((1 << 32), (256, 4)), ((1 << 32) + 1, (44, 4)),
                              ((2 << 32), (150, 8)), ((3 << 32), (75, 16))]

    def test_coarsen_sums_the_increments(self):
        rng = stream(4, 0)
        d_sub = grid_increments(ST6, time_grid(1.0, 1 / 8), rng, 5)
        d_sub[0, :2] = 0.0
        dw = rng.standard_normal((5, 8, 3))
        d, w = spde.coarsen(d_sub, dw)
        assert np.array_equal(d, d_sub[:, ::2] + d_sub[:, 1::2])
        assert np.all(w[0, 0] == 0.0)
        scaled = dw * np.sqrt(d_sub)[:, :, None]
        np.testing.assert_allclose(w * np.sqrt(d)[:, :, None],
                                   scaled[:, ::2] + scaled[:, 1::2], rtol=1e-12)

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

    def test_trivial_small_ball_bound_is_positive_zero(self):
        # kappa = max(0, 1 - 9 ||Q||^2 delta^2) is 0 and the other factor is
        # negative: the bound is 0.0, not kappa times it, -0.0
        system = diagonal_system(2, q=spde.constant_diagonal_q([10.0, 10.0]))
        res = spde.small_ball(system, bf.stable(0.5), 0.5, 1.0, 200, 3,
                              dt=1 / 4)
        assert res.analytic_lower_bound == 0.0
        assert math.copysign(1.0, res.analytic_lower_bound) == 1.0

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
        Z = spde.advance(system, times, d_sub, dw, path="convolution")
        sup = np.linalg.norm(Z, axis=-1)
        delta = 0.5
        freqs = []
        for frac in (1.0, 0.5, 0.25, 0.125):
            j = int(round(frac * (len(times) - 1)))
            freqs.append((sup[:, : j + 1].max(axis=1) < delta).mean())
        assert all(b >= a for a, b in zip(freqs, freqs[1:]))


# log2 doubling indices in closed form, (global_inf, at_infinity) below T = 1
# and (at_zero, global_sup) from T = 1 on; a None order bound refuses every p
CLOSED_FORM_INDICES = {
    "stable:0.6": ((0.6, 0.6), (0.6, 0.6)),
    "tempered:0.5,1": ((0.5, 0.5), (1.0, 1.0)),
    "gamma": ((None, 0.0), (1.0, 1.0)),
    "drift:1": ((1.0, 1.0), (1.0, 1.0)),
}


def scan_gate(scan, phi, p, theta, horizons):
    """Run a scan at (p, theta) on a few paths: True if it is accepted,
    False if it is refused by a gate."""
    system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
    try:
        if scan == "convmom":
            spde.convolution_moment_scan(system, phi, p, theta, horizons, 4,
                                         5, dt=1 / 4)
        elif scan == "maximal":
            spde.maximal_inequality_scan(system, phi, p, horizons, 4, 5,
                                         dt=1 / 4)
        else:
            spde.longrun_moment_scan(system, phi, p, theta, horizons, 4, 5,
                                     dt=1 / 4)
    except GateViolation:
        return False
    return True


@pytest.mark.parametrize("ident", sorted(CLOSED_FORM_INDICES))
@pytest.mark.parametrize("scan,horizons,stationary", [
    ("convmom", [0.5, 2.0], False),
    ("maximal", [0.5], False),
    ("maximal", [1.0, 2.0], True),
    ("longrun", [1.0], True),
])
def test_gates_at_closed_form_indices(ident, scan, horizons, stationary):
    # |Lambda^theta Z|^p is the integral's moment of order p/2 at index
    # 2 theta: the gate admits p < 2 p_index and theta < 1/(2 theta_index)
    phi = bf.parse_phi(ident)
    order, index = CLOSED_FORM_INDICES[ident][stationary]
    if order is None:
        assert not scan_gate(scan, phi, 0.05, 0.0, horizons)
        return
    p_edge = 2 * order
    assert scan_gate(scan, phi, p_edge - 0.05, 0.0, horizons)
    assert not scan_gate(scan, phi, p_edge + 0.05, 0.0, horizons)
    if scan == "maximal":
        return      # theta = 0
    theta_edge = 1 / (2 * index)
    p = p_edge / 2
    assert scan_gate(scan, phi, p, theta_edge - 0.05, horizons)
    assert not scan_gate(scan, phi, p, theta_edge + 0.05, horizons)


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
    @pytest.mark.parametrize("length", [1, 2, 3, 17, 200])
    @pytest.mark.parametrize("dt", [2 ** -10, 1 / 32, 0.1, 0.7])
    def test_running_trapezoid_matches_scipy(self, length, dt):
        from scipy.integrate import cumulative_trapezoid
        vals = stream(length, 0).standard_exponential((5, length)) ** 3
        expected = cumulative_trapezoid(vals, dx=dt, axis=1, initial=0.0)
        got = spde._running_trapezoid(vals, dt)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_deterministic_average_matches_quadrature(self):
        # without noise every level's path is e^(-t Gamma) x0 at its nodes:
        # the sum of levels 0..l is the trapezoid rule of level l's step, from
        # 1 down to 2^-10, and the sum of all eleven matches the quadrature
        from scipy.integrate import quad, trapezoid
        gam = np.array([1.0, 2.0])
        x0 = np.array([1.0, 0.5])
        system = diagonal_system(2, gam, x0=x0)
        p, theta = 0.5, 0.25

        def moment(t):
            x = gam ** theta * np.exp(-np.multiply.outer(t, gam)) * x0
            return np.linalg.norm(x, axis=-1) ** p

        for horizons in ([2.0], [1.0, 2.0, 3.0]):
            rep = spde.longrun_moment_scan(system, ST6, p, theta, horizons, 1,
                                           3, dt=2 ** -10)
            assert rep.horizons == tuple(horizons)
            assert [lv.dt for lv in rep.levels] == [2.0 ** -l for l in range(11)]
            for h, (T, est) in enumerate(zip(rep.horizons, rep.averages)):
                oracle, _ = quad(moment, 1.0, T + 1.0)
                assert est.mean == pytest.approx(oracle / T, abs=1e-6)
                partial = 0.0
                for lv in rep.levels:
                    partial += estimate_from_blocks([lv.moments])[h].mean
                    ts = np.linspace(1.0, T + 1.0, round(T / lv.dt) + 1)
                    assert partial == pytest.approx(
                        trapezoid(moment(ts), ts) / T, rel=1e-9)

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


class TestMultilevelScans:
    """``convmom`` and ``longrun`` through the level loop of ``maximal``, at
    p = 1/2 and theta = 1/4 under stable(0.6)."""

    system = diagonal_system(3, q=spde.constant_diagonal_q([0.5, 0.3, 0.2]))

    def multilevel(self, scan, horizons, N, seed, dt):
        """The estimates and levels of ``scan``'s multilevel run."""
        if scan == "convmom":
            rep = spde.convolution_moment_scan(self.system, ST6, 0.5, 0.25,
                                               horizons, N, seed, dt=dt)
            return rep.estimates, rep.levels
        rep = spde.longrun_moment_scan(self.system, ST6, 0.5, 0.25, horizons,
                                       N, seed, dt=dt)
        return rep.averages, rep.levels

    def plain(self, scan, horizons, N, seed, dt):
        """The estimates of a plain run of ``scan`` on the grid of step
        ``dt``, its statistic as the scan computed it in one run."""
        system = self.system
        weights = spde.mode_rows(system.eigenvalues ** 0.25)
        if scan == "convmom":
            times = time_grid(horizons[-1], dt)
            cols = [round(t / dt) for t in horizons]

            def statistic(d_sub, dw):
                Z = spde.advance(system, times, d_sub, dw,
                                 path="convolution")[:, cols, :]
                Z *= weights((len(Z), 1, system.n))
                return spde._norms_in_place(Z) ** 0.5
        else:
            times = time_grid(horizons[-1] + 1.0, dt)
            j0, ends = round(1 / dt), [round(T / dt) for T in horizons]

            def statistic(d_sub, dw):
                X = spde.advance(system, times, d_sub, dw, path="state")[:, j0:, :]
                X *= weights((len(X), 1, system.n))
                running = spde._running_trapezoid(
                    spde._norms_in_place(X) ** 0.5, dt)
                return running[:, ends] / np.array(horizons)
        return tuple(spde._mc_paths(system, ST6, times, N, seed, statistic))

    @pytest.mark.parametrize("scan, horizons, dt", [
        # 0.5625 is 9 cells of 1/16; t = 1 and T + 1 = 1.3, 1.7 are 10, 13
        # and 17 cells of 0.1, a step whose grid's spacing is not 0.1 exactly
        ("convmom", [0.5, 0.5625], 1 / 16),
        ("longrun", [0.3, 0.7], 0.1),
    ])
    def test_one_level_is_the_plain_estimate(self, scan, horizons, dt):
        ests, levels = self.multilevel(scan, horizons, 100, 3, dt)
        assert len(levels) == 1
        assert ests == self.plain(scan, horizons, 100, 3, dt)

    @pytest.mark.parametrize("scan, horizons, ladder", [
        ("convmom", [0.5, 1.0], [(0.5, 300), (0.25, 150), (0.125, 75),
                                 (0.0625, 38)]),
        # t = 1 and T + 1 = 2, 3 lie on the grid of step 1
        ("longrun", [1.0, 2.0], [(1.0, 300), (0.5, 150), (0.25, 75),
                                 (0.125, 38), (0.0625, 19)]),
    ])
    def test_estimate_is_the_sum_of_its_levels(self, scan, horizons, ladder):
        ests, levels = self.multilevel(scan, horizons, 300, 3, 1 / 16)
        assert [(lv.dt, lv.moments.count) for lv in levels] == ladder
        for h, est in enumerate(ests):
            col = [estimate_from_blocks([lv.moments])[h] for lv in levels]
            assert est.method == "multilevel"
            assert est.n_samples == sum(paths for _, paths in ladder)
            assert est.mean == sum(e.mean for e in col)
            assert est.std_error == math.sqrt(sum(e.std_error ** 2 for e in col))

    @pytest.mark.parametrize("scan", ["convmom", "longrun"])
    def test_levels_ignore_worker_count(self, scan, monkeypatch):
        # level 0 is three chunks of 600 paths; at a threshold of 0
        # doubles two or three workers share the tasks, more threads than
        # cores, switching often, while every thread reads the shared
        # mode_rows caches of the weights and of Q
        monkeypatch.setattr(mc, "THREAD_DOUBLES", 0)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in ("1", "2", "3"):
                monkeypatch.setenv("SUBSING_WORKERS", workers)
                ests, levels = self.multilevel(scan, [0.5, 1.0], 600, 5, 1 / 16)
                runs.append((ests, [
                    (lv.dt, lv.moments.count, estimate_from_blocks([lv.moments]),
                     lv.moments.mean.tolist(), lv.moments.m2.tolist())
                    for lv in levels]))
        finally:
            sys.setswitchinterval(interval)
        assert len(runs[0][1]) > 1 and runs[1] == runs[0] == runs[2]

    @pytest.mark.parametrize("scan, horizons, N, dt", [
        ("convmom", [0.25, 0.5, 1.0], 4000, 1 / 64),
        ("longrun", [2.0, 4.0, 8.0], 1000, 1 / 32),
    ])
    def test_matches_a_plain_run_on_independent_streams(self, scan, horizons,
                                                        N, dt):
        # the multilevel estimate is unbiased for the grid of step dt: it
        # agrees with a plain run there, seed 31 against 32
        ests, levels = self.multilevel(scan, horizons, N, 31, dt)
        assert len(levels) > 1
        for ml, pl in zip(ests, self.plain(scan, horizons, N, 32, dt)):
            assert ml.std_error > 0
            assert abs(ml.mean - pl.mean) <= 3 * math.hypot(ml.std_error,
                                                            pl.std_error)


class TestController:
    def make_system(self, lip=0.0, bound=0.0, drift=None, gamma1=1.0):
        return diagonal_system(
            1, [gamma1], q=spde.constant_diagonal_q([1.0]),
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

    def test_vanishing_diffusion_fails_the_a4_probe(self):
        # no (C, delta) bounds the inverse of a zero entry: the probe reads
        # an infinite norm, without a division warning
        system = diagonal_system(1, [1.0], q=spde.constant_diagonal_q([0.0]),
                                 x0=np.array([1.0]), a4=(1.0, 0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="inf > 1"):
                spde.verify_a4(system)
        times = np.linspace(0.0, 0.5, 17)
        ell = np.linspace(0.0, 1.0, 17)
        with pytest.raises(PreconditionError):
            spde.synthesize_null_controller(system, times, ell)

    def test_requires_a4_constants(self):
        system = diagonal_system(1, [1.0], q=spde.constant_diagonal_q([1.0]),
                                 x0=np.array([1.0]))
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
            1, [1.0], q=spde.constant_diagonal_q([1.0]),
            x0=np.array([1.0]), a4=(2.0, 1.5))
        with pytest.raises(PreconditionError):
            spde.synthesize_null_controller(bad, times, ell,
                                            driver=bf.stable(0.5))

    def test_a4_probe_failure(self):
        # declared constants cannot dominate an exploding inverse
        system = diagonal_system(
            1, [1.0], q=spde.constant_diagonal_q([1.0]),
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

        q = spde.DiagonalQ(entries, 0.5)
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
        # the sup of every path is the floor, bit for bit
        assert [e.mean for e in rep.sup_sq_error] == list(rep.projection_floor)
        assert rep.floor_share == (1.0, 1.0)

    def test_errors_decrease(self):
        system = self.coupled_system()
        rep = spde.galerkin_error(system, [1, 2, 4], GAMMA, 0.5, 1 / 64, 50,
                                  seed=7)
        means = [e.mean for e in rep.sup_sq_error]
        assert means[0] > means[1] > means[2]

    def test_reference_past_the_doubles_is_refused(self):
        # X_0 itself overflows while the tails stay finite: the truncations
        # repeat that overflow, so no error is read off the tails alone
        rows = spde.mode_rows([1e300, 0.0, 0.0])
        q = spde.DiagonalQ(lambda y: rows(y.shape) * (1 + y * y), 1e300)
        system = diagonal_system(3, q=q, x0=[0.0, 1.0, 1.0])
        with pytest.raises(NumericError):
            spde.galerkin_error(system, [1, 2], GAMMA, 0.5, 1 / 8, 8, seed=1)

    def test_overflowing_square_of_a_repeated_mode_keeps_the_tails(self):
        # X_0 stays finite near 1e300 and only its square overflows: the
        # truncations repeat mode 0 exactly, so their errors are the tails'
        rows = spde.mode_rows([1e300, 0.0, 0.0])
        q = spde.DiagonalQ(lambda y: rows(y.shape), 1e300)
        system = diagonal_system(3, q=q, x0=[0.0, 1.0, 1.0])
        rep = spde.galerkin_error(system, [1, 2], GAMMA, 0.5, 1 / 8, 8, seed=1)
        assert [e.mean for e in rep.sup_sq_error] == [2.0, 1.0]
        assert rep.projection_floor == (2.0, 1.0)

    def test_dimension_precondition(self):
        system = self.coupled_system()
        with pytest.raises(DomainError):
            spde.galerkin_error(system, [16], GAMMA, 0.5, 1 / 64, 4, seed=3)


def test_empty_system_is_a_domain_error():
    with pytest.raises(DomainError):
        spde.GalerkinSystem(0, np.empty(0), spde.zero_drift, 0.0, 0.0,
                            spde.constant_diagonal_q(np.zeros(0)), np.empty(0))


def test_initial_state_of_another_dimension_is_a_domain_error():
    with pytest.raises(DomainError, match="dimension mismatch"):
        diagonal_system(3, x0=[0.0, 1.0])


def test_validate_system_flags_bad_bounds():
    def drift(y):
        return np.ones_like(y)

    system = diagonal_system(3, drift=drift, drift_bound=0.1, drift_lip=0.0)
    with pytest.raises(PreconditionError):
        spde.validate_system(system)


def test_validate_system_flags_a_bad_diffusion_bound():
    # unit entries on 3 modes have norm sqrt(3)
    system = diagonal_system(3, q=spde.DiagonalQ(np.ones_like, 0.5))
    with pytest.raises(PreconditionError, match="diffusion bound violated"):
        spde.validate_system(system)


def test_validate_system_refuses_cross_mode_entries():
    # entry k reads y_{k-1}: a truncation to m modes would see other entries
    def entries(y):
        return 0.1 * (1.5 + np.tanh(np.roll(y, 1, axis=-1)))

    system = diagonal_system(4, q=spde.DiagonalQ(entries, 1.0))
    with pytest.raises(PreconditionError, match="mode-wise"):
        spde.validate_system(system)
    spde.validate_system(diagonal_system(
        4, q=spde.DiagonalQ(lambda y: 0.1 * (1.5 + np.tanh(y)), 1.0)))


def test_constant_q_answers_the_first_modes():
    q = spde.constant_diagonal_q([0.4, 0.3, 0.2, 0.1])
    y = np.zeros((5, 2))
    assert np.array_equal(q.entries(y), np.tile([0.4, 0.3], (5, 1)))
    assert q.entries(np.zeros((5, 4))).shape == (5, 4)


def test_constant_q_entries_are_read_only():
    q = spde.constant_diagonal_q([0.4, 0.3, 0.2, 0.1])
    for shape in ((5, 4), (5, 2), (4,)):
        entries = q.entries(np.zeros(shape))
        assert entries.shape == shape and not entries.flags.writeable
        with pytest.raises(ValueError):
            entries[...] = 0.0


def _row_major_advance(system, times, d_sub, dw_std):
    """The (R, K+1, n) stepper that advance replaced, drift always added,
    on a uniform grid: every cell takes the factors of the first."""
    gam = np.asarray(system.eigenvalues, dtype=float)
    R, K = d_sub.shape
    X = np.empty((R, K + 1, system.n))
    Z = np.empty((R, K + 1, system.n))
    X[:, 0], Z[:, 0] = system.x0, 0.0
    rootd = np.sqrt(d_sub)
    h = times[1] - times[0]
    E, phi1 = np.exp(-gam * h), -np.expm1(-gam * h) / gam
    for k in range(K):
        xk = X[:, k]
        qn = system.diffusion.entries(xk) * (dw_std[:, k] * rootd[:, k, None])
        X[:, k + 1] = E * xk + phi1 * system.drift(xk) + E * qn
        Z[:, k + 1] = E * (Z[:, k] + qn)
    return X, Z


def _padded_truncation(system, m):
    """truncate_system as it was before diffusion entries were mode-wise:
    drift and diffusion both read the state padded with zeros to n modes."""
    def pad(y):
        out = np.zeros(y.shape[:-1] + (system.n,))
        out[..., :m] = y
        return out

    q, drift = system.diffusion, system.drift
    if drift is not spde.zero_drift:
        def drift(y):
            return system.drift(pad(y))[..., :m]
    return spde.GalerkinSystem(
        m, system.eigenvalues[:m], drift, system.drift_bound,
        system.drift_lip, spde.DiagonalQ(lambda y: q.entries(pad(y))[..., :m],
                                         q.hs_bound),
        np.asarray(system.x0)[:m])


def _stacked_galerkin(system, truncations, times, d_sub, dw):
    """The sup errors (R, J) as galerkin_error took them before the lock
    step: the whole reference path stored, and each padded truncation's path
    subtracted from a copy of it."""
    X_ref = spde.advance(system, times, d_sub, dw, path="state")
    diff = np.empty_like(X_ref)
    sup = np.empty((len(d_sub), len(truncations)))
    for j, m in enumerate(truncations):
        np.copyto(diff, X_ref)
        diff[..., :m] -= spde.advance(_padded_truncation(system, m), times,
                                      d_sub, dw[..., :m], path="state")
        sup[:, j] = spde._norms_in_place(diff).max(axis=1)
    return sup


def _gamma(k):
    """gamma_k = k u / (1 - k u), u = 2^-53: a sum of k + 1 nonnegative
    doubles, added in any order, is within gamma_k of its exact value."""
    u = 2.0 ** -53
    return k * u / (1 - k * u)


def _read_off_gap(n):
    """Relative bound on |S - s^2|, S a squared error of the tail-sum
    read-off and s the oracle's norm of the same n squared terms.  Two
    summation orders of the terms differ by at most 2 gamma_{n-1} of their
    exact sum, itself within a factor 1 / (1 - gamma_{n-1}) of the oracle's
    sum; squaring the rounded square root of that sum moves it by at most
    gamma_3 of itself.  A grid maximum keeps the bound."""
    g, g3 = _gamma(n - 1), _gamma(3)
    return (2 * g / (1 - g) + g3) / (1 - g3)


class TestTimeMajorStepping:
    def state_dependent_system(self, drift=True, n=6):
        k = np.arange(1, n + 1, dtype=float)
        w = 0.3 * k ** -1.5

        def roll_drift(y):
            return w[: y.shape[-1]] * np.tanh(np.roll(y, 1, axis=-1))

        def entries(y):
            return 0.5 * k[: y.shape[-1]] ** -1.2 * (0.6 + 0.4 * np.tanh(y))

        q = spde.DiagonalQ(entries, 1.0)
        return spde.GalerkinSystem(
            n, k ** 1.4, roll_drift if drift else spde.zero_drift,
            float(np.linalg.norm(w)), float(w.max()), q, k ** -1.5)

    # one uniform grid: the stepper refuses any other
    @pytest.mark.parametrize("dt", [1 / 32], ids=["uniform"])
    @pytest.mark.parametrize("case", ["drift", "truncated", "zero_drift",
                                      "truncated_zero_drift"])
    def test_bit_identical_to_row_major(self, dt, case):
        system = self.state_dependent_system(drift="zero" not in case)
        if "truncated" in case:
            system = spde.truncate_system(system, 4)
        times = time_grid(1.0, dt)
        rng = np.random.default_rng(17)
        d_sub = grid_increments(ST6, times, rng, 9)
        dw = rng.standard_normal((9, len(times) - 1, system.n))
        want = _row_major_advance(system, times, d_sub, dw)
        for path, w in zip(["state", "convolution"], want):
            g = spde.advance(system, times, d_sub, dw, path=path)
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("path", ["state", "convolution"])
    def test_steps_yield_the_path_of_advance(self, path):
        system = self.state_dependent_system()
        times = time_grid(1.0, 1 / 16)
        rng = np.random.default_rng(5)
        d_sub = grid_increments(ST6, times, rng, 7)
        dw = rng.standard_normal((7, 16, system.n))
        got = [x.copy() for x in spde.steps(system, times, d_sub, dw, path=path)]
        want = spde.advance(system, times, d_sub, dw, path=path)
        assert np.array_equal(np.stack(got, axis=1), want)

    # one uniform grid: the stepper refuses any other
    @pytest.mark.parametrize("dt", [1 / 32], ids=["uniform"])
    @pytest.mark.parametrize("case", ["coupled", "state_dependent",
                                      "zero_drift", "zero_drift_64",
                                      "state_dependent_64"])
    def test_lock_step_galerkin_is_the_stacked_one(self, dt, case):
        # under a zero drift the errors are read off the reference's tail;
        # at n = 64 the two summation orders differ in the last bits
        if case == "coupled":
            system, truncations = TestGalerkin().coupled_system(), [1, 2, 4, 8]
        elif case == "zero_drift":
            system = self.state_dependent_system(drift=False, n=13)
            truncations = [1, 3, 8, 12]
        elif case.endswith("_64"):
            system = self.state_dependent_system(drift="zero" not in case,
                                                 n=64)
            truncations = [4, 8, 16, 32]
        else:
            system, truncations = self.state_dependent_system(), [2, 3, 5]
        times = time_grid(1.0, dt)
        rng = np.random.default_rng(23)
        d_sub = grid_increments(GAMMA, times, rng, 11)
        dw = rng.standard_normal((11, len(times) - 1, system.n))
        subsystems = [spde.truncate_system(system, m) for m in truncations]
        got = spde._sup_errors(system, subsystems, times, d_sub, dw,
                               spde._tail_segments(system.n, truncations))
        want = _stacked_galerkin(system, truncations, times, d_sub, dw) ** 2
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= _read_off_gap(system.n) * want)

    def test_galerkin_estimates_are_the_stacked_ones(self, monkeypatch):
        system, truncations = self.state_dependent_system(), [1, 2, 4]
        chunks, sup_errors = {}, spde._sup_errors

        def spy(*args):
            got = sup_errors(*args)
            chunks[args[3].tobytes()] = (*args[3:5], got)
            return got

        monkeypatch.setattr(spde, "_sup_errors", spy)
        rep = spde.galerkin_error(system, truncations, ST6, 0.5, 1 / 16, 300,
                                  seed=8, delta=0.1)
        times = time_grid(0.5, 1 / 16)
        gap = _read_off_gap(system.n)
        for d_sub, dw, got in chunks.values():
            want = _stacked_galerkin(system, truncations, times, d_sub, dw) ** 2
            assert np.all(np.abs(got - want) <= gap * want)

        # exactly the estimates of the rows the read-off gave, std_error
        # included
        floors = np.array(rep.projection_floor)

        def replay(d_sub, dw):
            sup_sq = chunks[d_sub.tobytes()][-1]
            return np.hstack([sup_sq, np.sqrt(sup_sq) > 0.1, sup_sq == floors])

        read = spde._mc_paths(system, ST6, times, 300, 8, replay)
        assert rep.sup_sq_error == tuple(read[:3])
        assert rep.floor_share == tuple(round(e.mean * 300) / 300
                                        for e in read[6:])

        def statistic(d_sub, dw):
            sup = _stacked_galerkin(system, truncations, times, d_sub, dw)
            return np.hstack([sup ** 2, sup > 0.1])

        want = spde._mc_paths(system, ST6, times, 300, 8, statistic)
        # a mean of the chunked Moments of 300 nonnegative rows is within
        # gamma_308 of the largest row of its exact mean: 299 additions of
        # centred rows, a centring, a division, a shift and one merge
        largest = max(float(c[-1].max()) for c in chunks.values()) * (1 + gap)
        for got, w in zip(rep.sup_sq_error, want[:3]):
            assert abs(got.mean - w.mean) <= (
                gap * w.mean + 2 * _gamma(308) * largest)
            assert (got.n_samples, got.heavy_tail_flag, got.method) == (
                w.n_samples, w.heavy_tail_flag, w.method)
        assert [p[0] for p in rep.exceed_prob] == [
            round(e.mean * 300) / 300 for e in want[3:]]

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("truncations", [[8, 4], [4, 4, 8]],
                             ids=["unsorted", "repeated"])
    def test_galerkin_rows_follow_the_truncations(self, drift, truncations):
        # each truncation gets the row of the sorted distinct run
        system = self.state_dependent_system(drift=drift, n=9)

        def rows(ms):
            rep = spde.galerkin_error(system, ms, ST6, 0.5, 1 / 16, 40, seed=3)
            return list(zip(rep.truncations, zip(
                rep.sup_sq_error, rep.exceed_prob, rep.projection_floor,
                rep.floor_share)))

        want = dict(rows(sorted(set(truncations))))
        assert rows(truncations) == [(m, want[m]) for m in truncations]

    def test_unknown_path_is_a_domain_error(self):
        system = self.state_dependent_system()
        times = time_grid(1.0, 1 / 4)
        with pytest.raises(DomainError):
            spde.advance(system, times, np.ones((2, 4)),
                         np.zeros((2, 4, system.n)), path="both")

    def test_a_graded_grid_is_a_domain_error(self):
        system = self.state_dependent_system()
        times = np.linspace(0.0, 1.0, 17) ** 1.5
        d_sub, dw = np.full((2, 16), 0.01), np.zeros((2, 16, system.n))
        for path in ("state", "convolution"):
            with pytest.raises(DomainError, match="uniform grid"):
                next(spde.steps(system, times, d_sub, dw, path=path))
            with pytest.raises(DomainError, match="uniform grid"):
                spde.advance(system, times, d_sub, dw, path=path)
        with pytest.raises(DomainError, match="uniform grid"):
            spde.conditional_maximal_check(system, times, d_sub[0], 10, 1)

    def test_truncation_keeps_zero_drift(self):
        system = self.state_dependent_system(drift=False)
        assert spde.truncate_system(system, 3).drift is spde.zero_drift
        assert spde.truncate_system(
            self.state_dependent_system(), 3).drift is not spde.zero_drift


_SCAN_PATHS = {
    "maximal": ("convolution", lambda system: spde.maximal_inequality_scan(
        system, ST6, 0.5, [0.5], 8, 1, dt=1 / 8)),
    "convmom": ("convolution", lambda system: spde.convolution_moment_scan(
        system, ST6, 0.5, 0.25, [0.5], 8, 1, dt=1 / 8)),
    "smallball": ("convolution", lambda system: spde.small_ball(
        system, ST6, 0.5, 0.5, 8, 1, dt=1 / 8)),
    "conditional": ("convolution", lambda system: spde.conditional_maximal_check(
        system, time_grid(0.5, 1 / 8), np.full(4, 0.1), 8, 1)),
    "longrun": ("state", lambda system: spde.longrun_moment_scan(
        system, GAMMA, 0.5, 0.25, [1.0], 8, 1, dt=1 / 8)),
    "galerkin": ("state", lambda system: spde.galerkin_error(
        system, [1, 2], GAMMA, 0.5, 1 / 8, 8, 1)),
}


@pytest.mark.parametrize("scan", sorted(_SCAN_PATHS))
def test_scan_steps_only_the_path_it_reads(scan, monkeypatch):
    # the convolution scans read Z only, the state scans X only
    want, run_scan = _SCAN_PATHS[scan]
    asked = []

    def spy(stepper):
        def stepper_spy(*args, path, **kwargs):
            asked.append(path)
            return stepper(*args, path=path, **kwargs)
        return stepper_spy

    # advance steps through spde.steps, so a scan may reach either
    for name in ("advance", "steps"):
        monkeypatch.setattr(spde, name, spy(getattr(spde, name)))
    run_scan(diagonal_system(3, q=spde.constant_diagonal_q([0.3, 0.2, 0.1])))
    assert asked and set(asked) == {want}


@pytest.mark.parametrize("drift", [False, True])
def test_zero_drift_galerkin_steps_only_the_reference(drift, monkeypatch):
    # per chunk: the reference alone under a zero drift, else 1 + J systems
    entered = []
    steps = spde.steps

    def spy(system, *args, **kwargs):
        entered.append(system.n)
        return steps(system, *args, **kwargs)

    monkeypatch.setattr(spde, "steps", spy)
    system = TestTimeMajorStepping().state_dependent_system(drift=drift)
    rep = spde.galerkin_error(system, [1, 2, 4], GAMMA, 0.5, 1 / 8, 300, 1)
    per_chunk = [6, 1, 2, 4] if drift else [6]
    assert entered == per_chunk * 2     # 300 paths in chunks of 256
    assert rep.truncations_stepped == len(per_chunk) - 1


def _threads() -> set:
    return {t.ident for t in threading.enumerate()}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_chunks_take_the_helper_only_from_thread_doubles(monkeypatch, workers):
    # 600 replicas in chunks of 256, 256 and the ragged 88.  With two
    # workers and a step slice of at least THREAD_DOUBLES doubles (256 x n),
    # the calling thread and one helper share the chunks, each drawn once,
    # and every draw sees the helper alive; else the calling thread draws
    # them in chunk order and no thread is started
    times = time_grid(0.5, 1 / 16)
    below, above = mc.THREAD_DOUBLES // 256 - 1, -(-mc.THREAD_DOUBLES // 256)
    monkeypatch.setenv("SUBSING_WORKERS", workers)
    here, before = threading.get_ident(), _threads()
    for n in (below, above):
        system = diagonal_system(n, q=spde.constant_diagonal_q([0.5] * n))
        drawn, seen = [], set()

        def recorded(driver, times, rng, m):
            drawn.append((m, threading.get_ident()))
            seen.update(_threads() - before)
            return grid_increments(driver, times, rng, m)

        monkeypatch.setattr(spde, "grid_increments", recorded)
        spde._mc_paths(system, ST6, times, 600, 3,
                       lambda d_sub, dw: d_sub.sum(axis=1))
        assert _threads() == before
        if n == above and workers == "2":
            assert sorted(m for m, _ in drawn) == [88, 256, 256]
            assert len(seen) == 1
            assert {ident for _, ident in drawn} <= seen | {here}
        else:
            assert drawn == [(256, here), (256, here), (88, here)]
            assert seen == set()


def _sequential_mc_paths(system, driver, times, N, seed, statistic):
    """Thread-free reference of ``spde._mc_paths``: chunk j drawn from
    stream (seed, j), the partials merged in chunk order."""
    K = len(times) - 1
    chunk = max(1, min(256, CHUNK_DOUBLES // (K * system.n + 1)))
    parts = []
    for j, start in enumerate(range(0, N, chunk)):
        m = min(chunk, N - start)
        rng = stream(seed, j)
        if isinstance(driver, np.ndarray):
            d_sub = np.broadcast_to(driver, (m, K))
        else:
            d_sub = grid_increments(driver, times, rng, m)
        parts.append(Moments.of(statistic(d_sub, rng.standard_normal((m, K, system.n)))))
    return estimate_from_blocks(parts)


@pytest.mark.parametrize("N", [100, 256, 512, 600, 257])
@pytest.mark.parametrize("frozen", [False, True], ids=["drawn", "frozen"])
def test_mc_paths_equals_the_sequential_loop(N, frozen):
    # chunks of at most 256: 100 and 256 are one, 512 two full ones, 600
    # and 257 end in a ragged chunk of 88 and of 1
    system = diagonal_system(3, q=spde.constant_diagonal_q([0.5, 0.3, 0.2]))
    times = time_grid(0.5, 1 / 16)
    driver = np.full(8, 1 / 16) if frozen else ST6

    def statistic(d_sub, dw):
        Z = spde.advance(system, times, d_sub, dw, path="convolution")
        return np.column_stack([spde._norms_in_place(Z).max(axis=1),
                                d_sub.sum(axis=1)])

    got = spde._mc_paths(system, driver, times, N, 4, statistic)
    assert got == _sequential_mc_paths(system, driver, times, N, 4, statistic)


def test_overflow_in_a_chunk_raises_before_any_later_chunk_runs():
    # 600 replicas of 2 modes, under THREAD_DOUBLES a step: the calling
    # thread runs the chunks of 256, 256 and 88 in order, and the second
    # overflows
    system = diagonal_system(2)
    times = time_grid(0.5, 1 / 16)
    ran = []

    def statistic(d_sub, dw):
        ran.append(len(d_sub))
        return np.full(len(d_sub), math.inf if len(ran) == 2 else 1.0)

    threads = threading.active_count()
    with pytest.raises(NumericError):
        spde._mc_paths(system, ST6, times, 600, 3, statistic)
    assert ran == [256, 256]
    assert threading.active_count() == threads


def _level_system(n, drift, q):
    """An n-mode system with the drift of ``TestTimeMajorStepping``, which
    reads mode k - 1, or none, and its state-dependent Q or a constant one."""
    system = TestTimeMajorStepping().state_dependent_system(drift=drift, n=n)
    if q == "const":
        k = np.arange(1, n + 1, dtype=float)
        system = spde.GalerkinSystem(
            n, system.eigenvalues, system.drift, system.drift_bound,
            system.drift_lip, spde.constant_diagonal_q(0.5 * k ** -1.2),
            system.x0)
    return system


# a dyadic grid, and one whose coarse first cell, 1.2/6, is not 2 dt = 0.2
LEVEL_GRIDS = {"dyadic": (1.0, 1 / 32), "last-bit": (1.2, 0.1)}


@pytest.mark.parametrize("grid", list(LEVEL_GRIDS))
@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("q", ["const", "state"])
@pytest.mark.parametrize("drift", [False, True], ids=["zero_drift", "coupled"])
@pytest.mark.parametrize("path", ["state", "convolution"])
def test_level_is_fine_less_separate_coarse(path, drift, q, n, grid,
                                            monkeypatch):
    # the partial of every level above 0, bit for bit: the statistic of its
    # draws on its own grid of step h, less that of a separate advance of
    # their coarsening on time_grid(T, 2h); n = 3 leaves a SIMD tail
    system = _level_system(n, drift, q)
    T, dt = LEVEL_GRIDS[grid]
    if grid == "last-bit":
        assert np.diff(time_grid(T, 2 * dt))[0] != 2 * dt
    K = len(time_grid(T, dt)) - 1
    cols, drawn, coarsen = [K // 2, K], {}, spde.coarsen

    def recorded(d_sub, dw):
        drawn.setdefault(d_sub.shape[1], []).append((d_sub.copy(), dw.copy()))
        return coarsen(d_sub, dw)

    def statistic(h, at, P):
        return h * P[:, at].reshape(len(P), -1)

    monkeypatch.setattr(spde, "coarsen", recorded)
    levels = spde.multilevel_paths(system, ST6, T, dt, cols, 64, 3, statistic,
                                   path=path)
    L = len(levels) - 1
    assert L >= 1 and len(drawn) == L
    for l, level in enumerate(levels[1:], start=1):
        h, here = level.dt, [c >> (L - l) for c in cols]
        [(d_sub, dw)] = drawn[here[-1]]     # one chunk per level
        fine = spde.advance(system, time_grid(T, h), d_sub, dw, path=path)
        coarse = spde.advance(system, time_grid(T, 2 * h),
                              *coarsen(d_sub, dw), path=path)
        want = Moments.of(statistic(h, here, fine)
                          - statistic(2 * h, [c >> 1 for c in here], coarse))
        got = level.moments
        assert got.count == want.count == len(d_sub)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.m2, want.m2)


@pytest.mark.parametrize("shape", [(3, 5, 8), (2, 7, 3), (1, 1, 1), (5,)])
def test_aligned_empty_starts_on_a_cache_line(shape):
    a = spde._aligned_empty(shape)
    assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
    assert a.ctypes.data % 64 == 0


def test_no_thread_rule_changes_a_result(monkeypatch):
    # every block and task on threads, then none: equal estimates, bit for
    # bit, of a run_mc moment and of a multilevel scan
    monkeypatch.setenv("SUBSING_WORKERS", "2")
    system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
    f = power_singular(0.5)
    runs = []
    for threshold in (0, 1 << 62):
        monkeypatch.setattr(mc, "THREAD_DOUBLES", threshold)
        rep = spde.maximal_inequality_scan(system, ST6, 0.5, [1, 2], 600, 1,
                                           dt=1 / 8)
        runs.append((moments.mc_moment(ST6, 0.25, f, 1.0, 3000, 5),
                     rep.estimates, [estimate_from_blocks([level.moments])
                                     for level in rep.levels]))
    assert runs[0] == runs[1]


class TestOneTaskQueue:
    """Every chunk of every level is a task of one ``_mc_parts`` call on
    ``mc.run_parts``: at steps 1, 1/2, 1/4 and 1/8 a run on 600 paths has
    levels of 600, 300, 150 and 75 paths, in chunks of at most 256."""

    system = diagonal_system(2, q=spde.constant_diagonal_q([0.3, 0.2]))
    tasks = [0, 1, 2, 1 << 32, (1 << 32) + 1, 2 << 32, 3 << 32]
    # the stream of each task above level 0, by its replicas
    coarse = {256: 1 << 32, 44: (1 << 32) + 1, 150: 2 << 32, 75: 3 << 32}

    @pytest.mark.parametrize("threshold", [512, 513], ids=["helper", "serial"])
    def test_one_helper_from_thread_doubles(self, monkeypatch, threshold):
        # the largest task steps 256 replicas of n = 2 modes, 512 doubles a
        # step: at two workers the calling thread and one helper share the
        # tasks when that reaches THREAD_DOUBLES, else the calling thread
        # runs every task, in order
        here, before = threading.get_ident(), _threads()
        drawn, coarsened, seen = [], [], set()

        def recorded_stream(seed, index):
            drawn.append((index, threading.get_ident()))
            seen.update(_threads() - before)
            return stream(seed, index)

        def recorded_coarsen(d_sub, dw):
            coarsened.append((len(d_sub), threading.get_ident()))
            return spde_coarsen(d_sub, dw)

        spde_coarsen = spde.coarsen
        monkeypatch.setenv("SUBSING_WORKERS", "2")
        monkeypatch.setattr(mc, "THREAD_DOUBLES", threshold)
        monkeypatch.setattr(spde, "stream", recorded_stream)
        monkeypatch.setattr(spde, "coarsen", recorded_coarsen)
        spde.maximal_inequality_scan(self.system, ST6, 0.5, [1, 2], 600, 1,
                                     dt=1 / 8)
        assert _threads() == before
        # each stream exactly once, and a task above level 0 coarsens its
        # draws on the thread that drew them and steps them
        assert sorted(index for index, _ in drawn) == self.tasks
        drew_on = dict(drawn)
        assert sorted(m for m, _ in coarsened) == sorted(self.coarse)
        assert all(ident == drew_on[self.coarse[m]] for m, ident in coarsened)
        if threshold == 513:
            assert drawn == [(index, here) for index in self.tasks]
            assert coarsened == [(m, here) for m in self.coarse]
            assert seen == set()
        else:
            assert len(seen) == 1
            assert {ident for _, ident in drawn} <= seen | {here}

    def test_overflow_in_a_task_raises_before_any_later_task_runs(self):
        # on the calling thread, the ragged last chunk of level 0 overflows:
        # no task of a finer level runs
        ran = []

        def statistic(h, at, path):
            ran.append((round(2.0 / h), len(path)))
            return np.full(len(path), math.inf if len(path) == 88 else 1.0)

        threads = threading.active_count()
        with pytest.raises(NumericError):
            spde.multilevel_paths(self.system, ST6, 2.0, 1 / 8, [8, 16], 600,
                                  1, statistic, path="convolution")
        assert ran == [(2, 256), (2, 256), (2, 88)]
        assert threading.active_count() == threads

    def test_overflow_on_the_calling_thread_stops_the_helper(self,
                                                             monkeypatch):
        # two workers share the tasks at a threshold of 0 doubles; the
        # calling thread's first task overflows at once while each helper
        # task takes 20 ms: the helper finishes the task it holds and takes
        # no further one, so fewer than the seven tasks are drawn
        here, before = threading.get_ident(), _threads()
        drawn = []

        def recorded_stream(seed, index):
            drawn.append(index)
            return stream(seed, index)

        def statistic(h, at, path):
            if threading.get_ident() == here:
                return np.full(len(path), math.inf)
            time.sleep(0.02)
            return np.ones(len(path))

        monkeypatch.setenv("SUBSING_WORKERS", "2")
        monkeypatch.setattr(mc, "THREAD_DOUBLES", 0)
        monkeypatch.setattr(spde, "stream", recorded_stream)
        with pytest.raises(NumericError):
            spde.multilevel_paths(self.system, ST6, 2.0, 1 / 8, [8, 16], 600,
                                  1, statistic, path="convolution")
        assert len(drawn) < len(self.tasks)
        assert _threads() == before
