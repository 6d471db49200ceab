"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import math
import time
import zlib

import numpy as np
import pytest
from closed_forms import CorollaryCase, corollary_case_moment
from conftest import relative_late_growth, truncation_medians

from subsing import bernstein as bf
from subsing import integrate as itg
from subsing import mc
from subsing import moments as mo
from subsing import spde
from subsing.rng import stream
from subsing.subordinator import geometric_grid, grid_increments, time_grid

G_RATIO = 1.4464090846320767          # Gamma(0.5)/Gamma(0.75)
CELL_SECONDS = 120.0


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -------------------------------------------------------------------------
# 1. characteristic functional identity
# -------------------------------------------------------------------------

LAPLACE_PHIS = [bf.stable(0.3), bf.stable(0.5), bf.stable(0.7),
                bf.gamma_exponent()]
LAPLACE_FS = [("const", itg.constant(1.0)),
              ("exp", itg.exponential(1.0)),
              ("pow", itg.power_singular(0.5))]


@pytest.mark.parametrize("phi", LAPLACE_PHIS, ids=lambda p: p.name)
@pytest.mark.parametrize("f", LAPLACE_FS, ids=lambda f: f[0])
def test_criterion_1_laplace_identity(phi, f):
    fname, integrand = f
    start = time.perf_counter()
    exact = mo.char_functional_exact(phi, integrand, (0.0, 1.0))
    seed = zlib.crc32(f"{phi.name}|{fname}".encode())
    est = mo.char_functional_mc(phi, integrand, 1.0, 100_000, seed=seed)
    elapsed = time.perf_counter() - start
    z = (est.mean - exact) / est.std_error
    ok = abs(est.mean - exact) <= 3 * est.std_error and elapsed <= CELL_SECONDS
    report(1, f"laplace[{phi.name},{fname}]", ok,
           f"mc={est.mean:.5f} exact={exact:.5f} z={z:+.2f} {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 2. exact stable moments
# -------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,p", [(0.5, 0.25), (0.5, -1.0), (0.7, 0.3)])
def test_criterion_2_plain_moments(alpha, p):
    exact = mo.exact_stable_moment(bf.stable(alpha), p, itg.constant(1.0), (0, 1))
    est = mo.mc_moment(bf.stable(alpha), p, itg.constant(1.0), 1.0, 100_000,
                       seed=int(alpha * 1000) + int(p * 100))
    z = (est.mean - exact) / est.std_error
    ok = abs(est.mean - exact) <= 3 * est.std_error
    report(2, f"moment[a={alpha},p={p}]", ok,
           f"mc={est.mean:.5f} exact={exact:.5f} z={z:+.2f} ({est.method})")


def test_criterion_2_power_head_case():
    alpha, p, theta = 0.5, 0.25, 0.5
    exact = corollary_case_moment(alpha, p, 1.0,
                                  CorollaryCase.POWER_HEAD, theta=theta)
    est = mo.mc_moment(bf.stable(alpha), p, itg.power_singular(theta), 1.0,
                       40_000, seed=101)
    ok = abs(est.mean - exact) <= 3 * est.std_error
    report(2, "case power-head", ok,
           f"mc={est.mean:.5f} exact={exact:.5f} "
           f"z={(est.mean - exact) / est.std_error:+.2f}")


def test_criterion_2_power_tail_case():
    alpha, p, theta, T = 0.5, 0.25, 4.0, 1.0
    exact = corollary_case_moment(alpha, p, T,
                                  CorollaryCase.POWER_TAIL, theta=theta)
    # horizon cut so that the dropped-tail moment stays below half a standard
    # error: E[tail^p] = G_RATIO * (T_cut^-1)^(1/2) at these parameters
    times = geometric_grid(T, 1e5, ratio=1.005)
    est = mo.mc_integral_moment(bf.stable(alpha), p, itg.power_singular(theta),
                                times, 40_000, seed=202)
    ok = abs(est.mean - exact) <= 3 * est.std_error
    report(2, "case power-tail", ok,
           f"mc={est.mean:.5f} exact={exact:.5f} "
           f"z={(est.mean - exact) / est.std_error:+.2f}")


def test_criterion_2_exponential_case():
    alpha, p, lam = 0.5, 0.25, 1.0
    exact = corollary_case_moment(alpha, p, 1.0,
                                  CorollaryCase.EXPONENTIAL_HEAD, lam=lam)
    est = mo.mc_moment(bf.stable(alpha), p, itg.exponential(lam), 1.0,
                       40_000, seed=303, dt=1 / 250)
    ok = abs(est.mean - exact) <= 3 * est.std_error
    report(2, "case exponential", ok,
           f"mc={est.mean:.5f} exact={exact:.5f} "
           f"z={(est.mean - exact) / est.std_error:+.2f}")


def test_criterion_2_infinite_branches():
    inf1 = mo.exact_stable_moment(bf.stable(0.5), 0.5, itg.constant(1.0), (0, 1))
    inf2 = mo.exact_stable_moment(bf.stable(0.7), 0.95, itg.constant(1.0), (0, 1))
    inf3 = corollary_case_moment(0.5, 1.0, 1.0,
                                 CorollaryCase.POWER_HEAD, theta=2.0)
    inf4 = corollary_case_moment(0.5, 0.25, 1.0,
                                 CorollaryCase.POWER_HEAD, theta=2.5)
    ok = all(v == math.inf for v in (inf1, inf2, inf3, inf4))
    report(2, "infinite branches", ok, "p>=alpha and theta>=1/alpha give inf")


# -------------------------------------------------------------------------
# 3. zero-one law
# -------------------------------------------------------------------------

def test_criterion_3_zero_one_law():
    rows = []
    ok = True
    for alpha in (0.4, 0.5, 0.8):
        boundary = 1.0 / alpha
        for gap in (-0.6, -0.3, 0.0, 0.6):
            theta = boundary + gap
            verdict = itg.finiteness_criterion(itg.power_singular(theta),
                                               bf.stable(alpha), (0.0, 1.0)).verdict
            expect = itg.Verdict.INFINITE if theta >= boundary \
                else itg.Verdict.FINITE
            _, med = truncation_medians(alpha, theta, 2000,
                                        seed=int(alpha * 100 + theta * 10))
            growth = relative_late_growth(med)
            grows = growth >= 0.2
            settles = growth <= 0.1
            pair_ok = verdict is expect and (
                grows if expect is itg.Verdict.INFINITE else settles)
            ok &= pair_ok
            rows.append(f"a={alpha} th={theta:.2f} {verdict.name} "
                        f"growth={growth:.3f} {'ok' if pair_ok else 'BAD'}")
    report(3, "zero-one law", ok, "; ".join(rows[:4]) + " ...")


# -------------------------------------------------------------------------
# 4. time reversal
# -------------------------------------------------------------------------

def test_criterion_4_time_reversal():
    phi = bf.stable(0.6)
    f = itg.exponential(1.0)
    fr = itg.time_reversed(f, 1.0)
    ok = True
    details = []
    for p in (-0.5, 0.25):
        a = mo.mc_moment(phi, p, f, 1.0, 100_000, seed=11, dt=1 / 250)
        b = mo.mc_moment(phi, p, fr, 1.0, 100_000, seed=12, dt=1 / 250)
        gap = abs(a.mean - b.mean)
        tol = 3 * math.hypot(a.std_error, b.std_error)
        ok &= gap <= tol
        details.append(f"p={p}: |{a.mean:.5f}-{b.mean:.5f}|<= {tol:.5f}")
    report(4, "time reversal", ok, "; ".join(details))


# -------------------------------------------------------------------------
# 5. moment bound sharpness and validity
# -------------------------------------------------------------------------

def test_criterion_5_stable_sharpness():
    rep = mo.bound_scan(bf.stable(0.5), 0.25, [1, 2, 4, 8], 100_000, seed=21,
                        theta=0.0)
    spread = max(rep.ratios) / min(rep.ratios)
    ok = spread <= 1.5
    report(5, "stable sharpness", ok,
           f"ratios={['%.4f' % r for r in rep.ratios]} max/min={spread:.3f}")


def test_criterion_5_gamma_bound_stability():
    phi = bf.gamma_exponent()
    rep1 = mo.bound_scan(phi, 0.5, [1, 2, 4, 8, 16], 10_000, seed=22, theta=0.0)
    rep2 = mo.bound_scan(phi, 0.5, [1, 2, 4, 8, 16], 20_000, seed=23, theta=0.0)
    k = int(np.argmax(rep1.ratios))
    drift_tol = 3 * (rep1.estimates[k].std_error
                     + rep2.estimates[k].std_error) / rep1.bound_rhs[k]
    ok = (math.isfinite(rep1.max_ratio) and math.isfinite(rep2.max_ratio)
          and abs(rep1.ratios[k] - rep2.ratios[k]) <= drift_tol)
    report(5, "gamma bound stability", ok,
           f"max_ratio {rep1.max_ratio:.4f} -> {rep2.max_ratio:.4f} "
           f"(tol {drift_tol:.4f})")


# -------------------------------------------------------------------------
# 6. doubling indices against admissibility thresholds
# -------------------------------------------------------------------------

def test_criterion_6_doubling_indices():
    cases = []
    for a, b in ((0.5, 0.3), (0.7, 0.2)):
        cases.append((bf.stable_log(a, b), (a, a + b, a + b, a)))
    for a, b in ((0.6, 0.2), (0.5, 0.4)):
        cases.append((bf.stable_log_inv(a, b), (a - b, a, a - b, a)))
    for a in (0.3, 0.7):
        cases.append((bf.ratio(a), (1 - a, 1.0, 1.0, 1 - a)))
    ok = True
    worst = 0.0
    for phi, (gi, gs, az, ai) in cases:
        d = bf.doubling_indices(phi)
        errs = [abs(d.global_inf - gi), abs(d.global_sup - gs),
                abs(d.at_zero - az), abs(d.at_infinity - ai)]
        worst = max(worst, max(errs))
        ok &= max(errs) <= 1e-3
    report(6, "doubling indices", ok, f"worst error {worst:.2e} (tol 1e-3)")


# -------------------------------------------------------------------------
# 7. maximal inequalities
# -------------------------------------------------------------------------

def _unit_q_system(n):
    return spde.GalerkinSystem(
        n, np.arange(1, n + 1, dtype=float) ** 1.2, spde.zero_drift, 0.0, 0.0,
        spde.constant_diagonal_q([1.0 / math.sqrt(n)] * n), np.zeros(n))


def test_criterion_7_conditional_maximal():
    system = _unit_q_system(4)        # hs bound exactly 1
    times = time_grid(1.0, 1 / 128)
    ok = True
    worst = -math.inf
    for k in range(20):
        d_sub = grid_increments(bf.stable(0.6), times, stream(500 + k, 0), 1)[0]
        est, bound = spde.conditional_maximal_check(system, times, d_sub,
                                                    2000, seed=600 + k)
        margin = (bound - est.mean) / est.std_error
        worst = max(worst, (est.mean - bound) / est.std_error)
        ok &= est.mean <= bound + 3 * est.std_error
    report(7, "conditional maximal", ok,
           f"20 frozen paths, worst (mean-bound)/se = {worst:+.1f}")


def test_criterion_7_unconditional_scan():
    system = _unit_q_system(4)
    rep = spde.maximal_inequality_scan(system, bf.stable(0.6), 0.5,
                                       [1, 2, 4, 8], 3000, seed=31, dt=1 / 64)
    spread = max(rep.ratios) / min(rep.ratios)
    ok = math.isfinite(rep.max_ratio) and spread <= 3.0
    report(7, "unconditional maximal", ok,
           f"ratios={['%.3f' % r for r in rep.ratios]} max/min={spread:.2f}")


# -------------------------------------------------------------------------
# 8. small ball probability
# -------------------------------------------------------------------------

def test_criterion_8_small_ball():
    n = 8
    system = spde.GalerkinSystem(
        n, np.arange(1, n + 1, dtype=float) ** 1.2, spde.zero_drift, 0.0, 0.0,
        spde.constant_diagonal_q(0.5 * np.arange(1, n + 1) ** -1.0),
        np.zeros(n))
    res = spde.small_ball(system, bf.stable(0.5), 0.5, 1 / 16, 10_000,
                          seed=41, dt=2 ** -10)
    ok = res.wilson_low > 0.0
    report(8, "small ball", ok,
           f"P={res.probability:.4f} wilson99=({res.wilson_low:.4f},"
           f"{res.wilson_high:.4f}) lb={res.analytic_lower_bound}")


# -------------------------------------------------------------------------
# 9. null controller synthesis
# -------------------------------------------------------------------------

def _controller_system(lip, bound, drift, gamma1=0.1):
    return spde.GalerkinSystem(
        1, np.array([gamma1]), drift, bound, lip,
        spde.constant_diagonal_q([1.0]), np.array([1.0]),
        a4_constants=(1.0, 0.25))


def test_criterion_9_controller():
    # closed-form check: no drift, unit diffusion, frozen stable clock
    sys0 = _controller_system(0.0, 0.0, spde.zero_drift, gamma1=1.0)
    K = 512
    times = np.linspace(0.0, 0.5, K + 1)
    inc = grid_increments(bf.stable(0.6), times, stream(51, 0), 1)[0]
    ell = np.concatenate(([0.0], np.cumsum(inc)))
    res0 = spde.synthesize_null_controller(sys0, times, ell)
    ok0 = abs(res0.phi_terminal[0]) <= 1e-6 * 1.0 and res0.converged

    # contraction slope: drift_lip * horizon = 0.5; the Lipschitz envelope is
    # tight on the first sweep, so the fit uses a two-entry history (longer
    # histories contract strictly faster than the envelope)
    lip, T = 1.0, 0.5

    def drift(y):
        return np.clip(-lip * (y - 1.0), -2.0, 2.0)

    sys1 = _controller_system(lip, 2.0, drift)
    ell2 = np.concatenate(([0.0], 0.99 + 0.01 * np.linspace(1e-6, 1.0, K)))
    res1 = spde.synthesize_null_controller(sys1, times, ell2, max_iter=2)
    h = np.array(res1.history)
    slope = float(np.polyfit(np.arange(len(h)), np.log(h), 1)[0])
    ok1 = abs(slope - math.log(0.5)) <= 0.1

    # terminal-state bound holds in every run
    res2 = spde.synthesize_null_controller(sys1, times, ell2, max_iter=32)
    ok2 = all(abs(r.y_terminal[0]) <= b * T + 1e-9
              for r, b in ((res0, 0.0), (res1, 2.0), (res2, 2.0)))
    ok = ok0 and ok1 and ok2
    report(9, "controller", ok,
           f"|phi_T|={abs(res0.phi_terminal[0]):.2e} slope={slope:.4f} "
           f"target={math.log(0.5):.4f} |Y_T|={abs(res2.y_terminal[0]):.4f}")


# -------------------------------------------------------------------------
# 10. Galerkin convergence
# -------------------------------------------------------------------------

def test_criterion_10_galerkin():
    start = time.perf_counter()
    n = 64
    k = np.arange(1, n + 1, dtype=float)
    gam = k ** 1.3
    x0 = k ** -1.5
    qscale = 0.6 * k ** -1.2
    fscale = 0.4 * k ** -1.5

    def drift(y):
        return fscale[: y.shape[-1]] * np.tanh(np.roll(y, 1, axis=-1))

    def entries(y):
        return qscale[: y.shape[-1]] * (0.6 + 0.4 * np.tanh(y))

    q = spde.DiagonalQ(entries, float(np.linalg.norm(qscale)))
    system = spde.GalerkinSystem(n, gam, drift, float(np.linalg.norm(fscale)),
                                 float(fscale.max()), q, x0)
    rep = spde.galerkin_error(system, [4, 8, 16, 32], bf.gamma_exponent(),
                              1.0, 1 / 256, 200, seed=61, delta=0.05)
    elapsed = time.perf_counter() - start
    means = [e.mean for e in rep.sup_sq_error]
    ses = [e.std_error for e in rep.sup_sq_error]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    separated = means[0] - ses[0] > means[-1] + ses[-1]
    exceed32 = rep.exceed_prob[-1][0]
    ok = decreasing and separated and exceed32 < 0.05 and elapsed <= 600
    report(10, "galerkin", ok,
           f"mean sup^2 = {['%.2e' % m for m in means]} "
           f"P(sup>0.05)@32={exceed32:.3f} {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 11. determinism
# -------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    est_a = mo.mc_moment(bf.stable(0.5), 0.25, itg.constant(1.0), 1.0,
                         20_000, seed=71)
    est_b = mo.mc_moment(bf.stable(0.5), 0.25, itg.constant(1.0), 1.0,
                         20_000, seed=71)
    same_mc = est_a == est_b

    path_a = spde.simulate(_unit_q_system(4), bf.stable(0.6), 1.0, 1 / 64, 72)
    path_b = spde.simulate(_unit_q_system(4), bf.stable(0.6), 1.0, 1 / 64, 72)
    same_path = (np.array_equal(path_a.state, path_b.state)
                 and np.array_equal(path_a.subordinator, path_b.subordinator))

    from subsing.cli import main
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["moment", "bound", "--phi", "stable:0.5", "--p", "0.25",
            "--theta", "0", "--paths", "5000", "--seed", "73"]
    main(args + ["--out", str(f1)])
    main(args + ["--out", str(f2)])
    same_files = f1.read_bytes() == f2.read_bytes()

    ok = same_mc and same_path and same_files
    report(11, "determinism", ok,
           f"mc={same_mc} path={same_path} files={same_files}")


# -------------------------------------------------------------------------
# 13. exact law of the SPDE stepper
# -------------------------------------------------------------------------

def _criterion_13_system():
    """The constant-Q, zero-drift system of criterion 13 and its u."""
    n = 8
    k = np.arange(1, n + 1, dtype=float)
    gam, q, x0 = k ** 1.3, 0.6 * k ** -1.2, k ** -1.5
    system = spde.GalerkinSystem(n, gam, spde.zero_drift, 0.0, 0.0,
                                 spde.constant_diagonal_q(q), x0)
    return system, q, np.full(n, 2.0)


def _scheme_exact_cos(phi, system, q, u, times):
    """E cos(u.Z_K) of the scheme on ``times``: exp(-sum_j h_j phi(s_j))."""
    T, t, h = times[-1], times[:-1], np.diff(times)
    s = 0.5 * (u * u * q * q) @ np.exp(-2.0 * np.outer(system.eigenvalues, T - t))
    return math.exp(-float(h @ phi.fn(s)))


CRITERION_13_DRIVERS = [bf.stable(0.6), bf.gamma_exponent(),
                        bf.tempered_stable(0.5, 1.0)]
CRITERION_13_IDS = ["stable:0.6", "gamma", "tempered:0.5,1"]


@pytest.mark.parametrize("phi, seed", zip(CRITERION_13_DRIVERS, (91, 92, 93)),
                         ids=CRITERION_13_IDS)
def test_criterion_13_exact_law(phi, seed):
    # with zero drift and Q = diag(q), Z_K = sum_j E^(K-j) q sqrt(dS_j) N_j is
    # Gaussian given the clock, so E cos(u.Z_K) is exp(-sum_j h_j phi(s_j))
    # with s_j = 1/2 sum_i u_i^2 q_i^2 e^(-2 gamma_i (T - t_j)); the state adds
    # the mean e^(-gamma T) x0, and Z is conditionally symmetric
    start = time.perf_counter()
    system, q, u = _criterion_13_system()
    T = 1.0
    times = time_grid(T, 1 / 64)

    def statistic(d_sub, dw):
        z = spde.advance(system, times, d_sub, dw, path="convolution")[:, -1]
        x = spde.advance(system, times, d_sub, dw, path="state")[:, -1]
        return np.cos(np.stack([z @ u, x @ u], axis=1))

    est_z, est_x = spde._mc_paths(system, phi, times, 40_000, seed, statistic)
    exact_z = _scheme_exact_cos(phi, system, q, u, times)
    exact_x = math.cos(float(u @ (np.exp(-system.eigenvalues * T) * system.x0))) * exact_z
    zs = [(est.mean - exact) / est.std_error
          for est, exact in ((est_z, exact_z), (est_x, exact_x))]
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 3.0 for z in zs) and elapsed <= CELL_SECONDS
    report(13, f"exact law ({phi.name})", ok,
           f"z(Z)={zs[0]:+.2f} z(X)={zs[1]:+.2f} {elapsed:.1f}s")


@pytest.mark.parametrize("phi, seed", zip(CRITERION_13_DRIVERS, (131, 132, 133)),
                         ids=CRITERION_13_IDS)
def test_criterion_13_multilevel_exact_law(phi, seed):
    # the multilevel estimate over steps 1, 1/2, ..., 1/64 is unbiased for
    # the finest grid's E cos(u.Z_T), so it meets that grid's exact value
    start = time.perf_counter()
    system, q, u = _criterion_13_system()

    def statistic(times, cols, Z):
        return np.cos(Z[:, cols] @ u)

    levels = spde.multilevel_paths(system, phi, 1.0, 1 / 64, [64], 40_000,
                                   seed, statistic, path="convolution")
    est, = mc.multilevel_estimates(levels)
    exact = _scheme_exact_cos(phi, system, q, u, time_grid(1.0, 1 / 64))
    z = (est.mean - exact) / est.std_error
    elapsed = time.perf_counter() - start
    ok = (abs(z) <= 3.0 and [lv.dt for lv in levels] == [2.0 ** -l for l in range(7)]
          and elapsed <= CELL_SECONDS)
    report(13, f"multilevel exact law ({phi.name})", ok,
           f"z={z:+.2f} se={est.std_error:.2e} {elapsed:.2f}s")
