"""Finite-dimensional spectral simulation of SPDEs driven by subordinated
Brownian noise, plus the moment, small-ball, controller and truncation
experiments built on top of it.

The generator is diagonal in the spectral basis, so the semigroup is applied
exactly and time stepping is exponential Euler: the only discretization error
left is in the noise and the nonlinearity.  Sampling is two-stage: first the
subordinator increments over the grid, then Gaussian increments with variance
equal to the subordinated time increment.  Freezing stage one gives the
conditional experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .bernstein import BernsteinFunction, doubling_indices, inverse
from .errors import (CapabilityError, DomainError, GateViolation,
                     PreconditionError)
from .mc import Moments, merge_all, wilson_interval
from .moments import BoundReport
from .rng import as_generator, stream
from .subordinator import grid_increments, time_grid


# ---------------------------------------------------------------------------
# diffusion coefficient maps
# ---------------------------------------------------------------------------

class DiagonalQ:
    """State-dependent diagonal diffusion: Q(y) = diag(entries(y)).

    ``entries`` must be vectorized over leading axes: (..., n) -> (..., n).
    """

    def __init__(self, entries: Callable, hs_bound: float, lip: float,
                 invertible: bool = False):
        self.entries = entries
        self.hs_bound = hs_bound
        self.lip = lip
        self.invertible = invertible

    def apply_noise(self, y: np.ndarray, dw: np.ndarray) -> np.ndarray:
        return self.entries(y) * dw

    def hs_norm(self, y: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.entries(y), axis=-1)

    def inverse_apply(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not self.invertible:
            raise CapabilityError("diffusion is not declared invertible")
        return v / self.entries(y)

    def inv_semigroup_norm(self, y: np.ndarray, decay: np.ndarray) -> float:
        # operator norm of Q(y)^-1 diag(decay)
        return float(np.max(decay / np.abs(self.entries(y))))

    def truncate(self, m: int, pad):
        return DiagonalQ(lambda y: self.entries(pad(y))[..., :m],
                         self.hs_bound, self.lip, self.invertible)


def constant_diagonal_q(values, invertible: bool = False) -> DiagonalQ:
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    hs = float(np.linalg.norm(vals))

    def entries(y, vals=vals):
        return np.broadcast_to(vals, y.shape)

    return DiagonalQ(entries, hs, 0.0, invertible)


def zero_q(n: int) -> DiagonalQ:
    return constant_diagonal_q(np.zeros(n))


# ---------------------------------------------------------------------------
# the spectral system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinSystem:
    """Finite spectral truncation: state dynamics on the first n eigenmodes.

    ``drift`` is the bounded Lipschitz nonlinearity (batched (..., n) ->
    (..., n)); ``diffusion`` a DiagonalQ.  The declared bounds are
    contracts, checkable on random probes via :func:`validate_system`.
    ``a4_constants`` optionally declares (C, delta) dominating the inverse
    diffusion against the semigroup, needed by the controller.
    """

    n: int
    eigenvalues: np.ndarray
    drift: Callable
    drift_bound: float
    drift_lip: float
    diffusion: object
    x0: np.ndarray
    a4_constants: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one eigenmode")
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.shape != (self.n,) or ev[0] <= 0 or np.any(np.diff(ev) < 0):
            raise DomainError("eigenvalues must be ascending with a positive gap")
        if np.asarray(self.x0).shape != (self.n,):
            raise DomainError("initial state dimension mismatch")


def zero_drift(y: np.ndarray) -> np.ndarray:
    return np.zeros_like(y)


def validate_system(system: GalerkinSystem, seed: int = 0, n_probes: int = 64,
                    radius: float = 10.0, slack: float = 1e-9):
    """Probe the declared drift / diffusion bounds on random states."""
    rng = as_generator(seed)
    y = rng.normal(0.0, radius, (n_probes, system.n))
    fy = np.linalg.norm(system.drift(y), axis=-1)
    if np.any(fy > system.drift_bound * (1 + slack) + slack):
        raise PreconditionError(
            f"drift bound violated on probes: {fy.max():g} > {system.drift_bound:g}")
    qy = system.diffusion.hs_norm(y)
    if np.any(qy > system.diffusion.hs_bound * (1 + slack) + slack):
        raise PreconditionError(
            f"diffusion bound violated on probes: "
            f"{np.max(qy):g} > {system.diffusion.hs_bound:g}")


def _pad_fn(n_full: int):
    def pad(y):
        out = np.zeros(y.shape[:-1] + (n_full,))
        out[..., : y.shape[-1]] = y
        return out

    return pad


def truncate_system(system: GalerkinSystem, m: int) -> GalerkinSystem:
    """Project the system onto its first m eigenmodes (shared eigenbasis)."""
    if m > system.n:
        raise DomainError("truncation dimension above the reference")
    pad = _pad_fn(system.n)
    if system.drift is zero_drift:
        drift = zero_drift
    else:
        def drift(y):
            return system.drift(pad(y))[..., :m]
    return GalerkinSystem(
        n=m,
        eigenvalues=system.eigenvalues[:m],
        drift=drift,
        drift_bound=system.drift_bound,
        drift_lip=system.drift_lip,
        diffusion=system.diffusion.truncate(m, pad),
        x0=np.asarray(system.x0)[:m],
        a4_constants=system.a4_constants,
    )


# ---------------------------------------------------------------------------
# exponential Euler stepping
# ---------------------------------------------------------------------------

def advance(system: GalerkinSystem, times: np.ndarray, d_sub: np.ndarray,
            dw_std: np.ndarray):
    """Advance replicas through the grid; returns (X, Z) of shape (R, K+1, n).

    d_sub holds subordinator increments (R, K); dw_std standard normals
    (R, K, n).  The Gaussian increment over a cell has variance equal to the
    subordinated time increment, the whole of it applied at the left node.

    X and Z are stored time-major, (K+1, R, n), so that each step reads and
    writes one contiguous (R, n) slice; the returned arrays are
    ``np.moveaxis`` views of that storage in the (R, K+1, n) order.  The drift
    term is skipped for :func:`zero_drift`, whose contribution is exactly 0.
    """
    gam = np.asarray(system.eigenvalues, dtype=float)
    dts = np.diff(times)
    R, K = d_sub.shape
    n = system.n
    X = np.empty((K + 1, R, n))
    Z = np.empty((K + 1, R, n))
    X[0] = system.x0
    Z[0] = 0.0
    uniform = np.allclose(dts, dts[0])
    if uniform:
        E = np.exp(-gam * dts[0])
        phi1 = -np.expm1(-gam * dts[0]) / gam
    rootd = np.sqrt(d_sub).T
    dw = dw_std.transpose(1, 0, 2)
    no_drift = system.drift is zero_drift
    for k in range(K):
        if not uniform:
            E = np.exp(-gam * dts[k])
            phi1 = -np.expm1(-gam * dts[k]) / gam
        xk = X[k]
        qn = system.diffusion.apply_noise(xk, dw[k] * rootd[k, :, None])
        if no_drift:
            X[k + 1] = E * xk + E * qn
        else:
            X[k + 1] = E * xk + phi1 * system.drift(xk) + E * qn
        Z[k + 1] = E * (Z[k] + qn)
    return np.moveaxis(X, 0, 1), np.moveaxis(Z, 0, 1)


@dataclass(frozen=True)
class SolutionPath:
    times: np.ndarray
    state: np.ndarray          # (K+1, n)
    convolution: np.ndarray    # (K+1, n)
    subordinator: np.ndarray   # (K+1,) grid values of S


def simulate(system: GalerkinSystem, driver: BernsteinFunction, T: float,
             dt: float, seed: int, *, eps: float = 1e-4) -> SolutionPath:
    """One replica of the system driven by ``driver`` on a uniform grid."""
    times = time_grid(T, dt)
    rng = as_generator(seed)
    d_sub = grid_increments(driver, times, rng, 1, eps=eps)
    dw = rng.standard_normal((1, len(times) - 1, system.n))
    X, Z = advance(system, times, d_sub, dw)
    svals = np.concatenate(([0.0], np.cumsum(d_sub[0])))
    return SolutionPath(times, X[0], Z[0], svals)


def _mc_paths(system, driver, times, N, seed, statistic, *, eps=1e-4):
    """Chunked two-stage Monte Carlo over replicas; ``statistic`` maps the
    chunk's subordinator increments (m, K) and standard normals (m, K, n) to
    per-replica statistic rows (m,) or (m, n_out), stepping them with
    :func:`advance` itself.

    ``driver`` is an exponent to draw subordinator increments from, or one
    frozen (K,) vector of increments shared by every replica.  Chunk j draws
    from stream (seed, j).  Returns one MCEstimate per statistic column.
    """
    if N < 1:
        raise DomainError("need a positive number of paths")
    K = len(times) - 1
    chunk = max(1, min(256, 2_000_000 // (K * system.n + 1)))
    parts = []
    for idx, start in enumerate(range(0, N, chunk)):
        m = min(chunk, N - start)
        rng = stream(seed, idx)
        if isinstance(driver, np.ndarray):
            d_sub = np.broadcast_to(driver, (m, K))
        else:
            d_sub = grid_increments(driver, times, rng, m, eps=eps)
        dw = rng.standard_normal((m, K, system.n))
        parts.append(Moments.of(statistic(d_sub, dw)))
    return merge_all(parts).estimates()


def _horizons(ts: Sequence[float]) -> list:
    """The horizons of a scan in ascending order; at least one, all positive
    and finite."""
    hs = sorted(float(t) for t in ts)
    if not hs or not all(0 < t < math.inf for t in hs):
        raise DomainError("need one or more positive, finite horizons")
    return hs


def _grid_columns(times: np.ndarray, ts: Sequence[float]) -> list:
    """Column of each time of ``ts`` on the grid ``times``."""
    cols = []
    for t in ts:
        j = int(np.abs(times - t).argmin())
        if abs(times[j] - t) > 1e-9 * max(1.0, t):
            raise DomainError(f"t = {t:g} is not a time of the grid of step "
                              f"{times[1] - times[0]:g}")
        cols.append(j)
    return cols


# ---------------------------------------------------------------------------
# semigroup facts used as exact invariants
# ---------------------------------------------------------------------------

def semigroup_theta_constant(theta: float) -> float:
    """Smallest C with x^theta e^(-x) <= C for x >= 0, i.e. (theta/e)^theta."""
    return (theta / math.e) ** theta if theta > 0 else 1.0


def fractional_power_norm(gammas: np.ndarray, theta: float,
                          y: np.ndarray) -> np.ndarray:
    """|Lambda^theta y| along the last axis."""
    w = np.asarray(gammas, dtype=float) ** theta
    return np.linalg.norm(w * y, axis=-1)


# ---------------------------------------------------------------------------
# gates for the convolution estimates
# ---------------------------------------------------------------------------

def gate_convolution(phi: BernsteinFunction, p: float, theta: float, mode: str):
    idx = doubling_indices(phi)
    if p <= 0:
        raise DomainError("moment order must be positive")
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    if mode == "small_time":
        if idx.global_inf is None or p / 2 >= idx.global_inf:
            raise GateViolation(
                "p/2 < log2(inf_{s>0} phi(2s)/phi(s))",
                f"p/2 = {p / 2}, log2 inf = {idx.global_inf}")
        if theta > 0 and (idx.at_infinity is None
                          or idx.at_infinity >= 1 / (2 * theta)):
            raise GateViolation(
                "log2(limsup_{s->inf} phi(2s)/phi(s)) < 1/(2 theta)",
                f"log2 limsup = {idx.at_infinity}, 1/(2 theta) = {1 / (2 * theta)}")
    elif mode == "stationary":
        if idx.at_zero is None or p / 2 >= idx.at_zero:
            raise GateViolation(
                "p/2 < log2(liminf_{s->0} phi(2s)/phi(s))",
                f"p/2 = {p / 2}, log2 liminf at zero = {idx.at_zero}")
        if theta > 0 and (idx.global_sup is None
                          or idx.global_sup >= 1 / (2 * theta)):
            raise GateViolation(
                "log2(sup_{s>0} phi(2s)/phi(s)) < 1/(2 theta)",
                f"log2 sup = {idx.global_sup}, 1/(2 theta) = {1 / (2 * theta)}")
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return idx


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def convolution_moment_scan(system: GalerkinSystem, driver: BernsteinFunction,
                            p: float, theta: float, t_grid: Sequence[float],
                            N: int, seed: int, *, dt: float,
                            mode: str = "small_time",
                            eps: float = 1e-4) -> BoundReport:
    """Monte Carlo fractional-power moments of the convolution at several
    times, against the small-time right side (or raw, in stationary mode)."""
    gate_convolution(driver, p, theta, mode)
    t_grid = _horizons(t_grid)
    times = time_grid(t_grid[-1], dt)
    cols = _grid_columns(times, t_grid)
    gam = system.eigenvalues

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw)[1]
        return fractional_power_norm(gam, theta, Z[:, cols, :]) ** p

    ests = _mc_paths(system, driver, times, N, seed, statistic, eps=eps)
    if mode == "small_time":
        rhs = tuple(t ** (-p * theta) * inverse(driver, 1.0 / t) ** (-p / 2)
                    for t in t_grid)
    else:
        rhs = tuple(1.0 for _ in t_grid)
    return BoundReport(tuple(t_grid), tuple(ests), rhs, f"convolution/{mode}")


def maximal_inequality_scan(system: GalerkinSystem, driver: BernsteinFunction,
                            p: float, T_grid: Sequence[float], N: int,
                            seed: int, *, dt: float,
                            eps: float = 1e-4) -> BoundReport:
    """Grid-maximum moments of |Z| per horizon against the maximal bound.

    One run on the grid of the largest horizon serves every horizon: each
    reads the running maximum of the same paths at its own column.
    """
    idx = doubling_indices(driver)
    if p <= 0:
        raise DomainError("moment order must be positive")
    T_grid = _horizons(T_grid)
    if T_grid[0] >= 1:
        if idx.at_zero is None or p >= 2 * idx.at_zero:
            raise GateViolation(
                "0 < p < 2 log2(liminf_{s->0} phi(2s)/phi(s))",
                f"p = {p}, log2 liminf at zero = {idx.at_zero}")
    else:
        if idx.global_inf is None or p >= 2 * idx.global_inf:
            raise GateViolation(
                "0 < p < 2 log2(inf_{s>0} phi(2s)/phi(s))",
                f"p = {p}, log2 inf = {idx.global_inf}")
    times = time_grid(T_grid[-1], dt)
    cols = _grid_columns(times, T_grid)

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw)[1]
        running = np.maximum.accumulate(np.linalg.norm(Z, axis=-1), axis=1)
        return running[:, cols] ** p

    ests = _mc_paths(system, driver, times, N, seed, statistic, eps=eps)
    rhs = tuple(inverse(driver, 1.0 / T) ** (-p / 2) for T in T_grid)
    return BoundReport(tuple(T_grid), tuple(ests), rhs, "maximal")


def conditional_maximal_check(system: GalerkinSystem, times: np.ndarray,
                              d_sub: np.ndarray, N: int, seed: int):
    """Frozen-path maximal moment: E^W[sup |Z|^2] against 9 ||Q||^2 ell_T.

    d_sub is one frozen vector of subordinator increments over the grid.
    Returns (estimate, bound).
    """
    d_sub = np.asarray(d_sub, dtype=float)
    if d_sub.shape != (len(times) - 1,):
        raise DomainError("frozen increments must match the grid")
    bound = 9.0 * system.diffusion.hs_bound ** 2 * float(d_sub.sum())

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw)[1]
        return np.linalg.norm(Z, axis=-1).max(axis=1) ** 2

    return _mc_paths(system, d_sub, times, N, seed, statistic)[0], bound


@dataclass(frozen=True)
class SmallBallResult:
    probability: float
    wilson_low: float
    wilson_high: float
    analytic_lower_bound: Optional[float]
    p_used: Optional[float]
    c1_empirical: Optional[float]


def small_ball(system: GalerkinSystem, driver: BernsteinFunction, delta: float,
               T: float, N: int, seed: int, *, dt: float, eps: float = 1e-4,
               p: Optional[float] = None, n_constant: int = 4000) -> SmallBallResult:
    """Empirical probability that the convolution stays inside a delta-ball,
    with the analytic lower bound evaluated at an empirical constant."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    times = time_grid(T, dt)

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw)[1]
        return (np.linalg.norm(Z, axis=-1).max(axis=1) < delta).astype(float)

    est = _mc_paths(system, driver, times, N, seed, statistic, eps=eps)[0]
    k = int(round(est.mean * N))
    lo, hi = wilson_interval(k, N)
    idx = doubling_indices(driver)
    lb = pu = c1 = None
    if idx.global_inf is not None and idx.global_inf > 0:
        pu = p if p is not None else 0.9 * idx.global_inf
        rng = stream(seed, 999983)
        s_T = grid_increments(driver, np.array([0.0, T]), rng, n_constant,
                              eps=eps)[:, 0]
        c1 = float(np.mean(s_T ** pu)) * inverse(driver, 1.0 / T) ** pu
        hsb = system.diffusion.hs_bound
        kappa = max(0.0, 1.0 - 9.0 * hsb ** 2 * delta ** 2)
        lb = kappa * (1.0 - c1 * (delta ** 4 * inverse(driver, 1.0 / T)) ** (-pu))
    return SmallBallResult(est.mean, lo, hi, lb, pu, c1)


@dataclass(frozen=True)
class LongRunReport:
    horizons: tuple
    averages: tuple            # MCEstimate of the time-averaged moment per T


def longrun_moment_scan(system: GalerkinSystem, driver: BernsteinFunction,
                        p: float, theta: float, horizons: Sequence[float],
                        N: int, seed: int, *, dt: float,
                        eps: float = 1e-4) -> LongRunReport:
    """Time-averaged moments of |Lambda^theta X_t| over [1, T+1] per horizon.

    Bounded output across growing horizons is the tightness evidence for the
    long-run behaviour of the state.  One run on [0, max T + 1] serves every
    horizon: each reads the running trapezoid integral from t = 1 at its own
    column.
    """
    gate_convolution(driver, p, theta, "stationary")
    gam = system.eigenvalues
    Ts = _horizons(horizons)
    times = time_grid(Ts[-1] + 1.0, dt)
    j0, *cols = _grid_columns(times, [1.0] + [T + 1.0 for T in Ts])
    offsets = np.array(cols) - j0

    def statistic(d_sub, dw):
        X = advance(system, times, d_sub, dw)[0]
        vals = fractional_power_norm(gam, theta, X[:, j0:, :]) ** p
        running = cumulative_trapezoid(vals, dx=dt, axis=1, initial=0.0)
        return running[:, offsets] / np.array(Ts)

    out = _mc_paths(system, driver, times, N, seed, statistic, eps=eps)
    return LongRunReport(tuple(Ts), tuple(out))


# ---------------------------------------------------------------------------
# null controller synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControllerResult:
    times: np.ndarray
    ell: np.ndarray
    control: np.ndarray          # u at the subordinated clock values, (K+1, n)
    phi_terminal: np.ndarray
    y_terminal: np.ndarray
    history: tuple               # sup-norm distances between Y iterates
    converged: bool


def a4_driver_integrability(driver: BernsteinFunction, delta: float) -> bool:
    """Check the driver-side inverse-noise condition: the exponent applied to
    s^(-2 delta) must be integrable at 0."""
    from .integrate import Verdict, finiteness_criterion, power_singular
    res = finiteness_criterion(power_singular(2.0 * delta), driver, (0.0, 1.0))
    if res.verdict is Verdict.UNDETERMINED:
        raise PreconditionError("driver integrability check did not resolve")
    return res.verdict is Verdict.FINITE


def verify_a4(system: GalerkinSystem, *, n_probes: int = 16, seed: int = 0,
              t_points: int = 25, radius: float = 5.0,
              driver: Optional[BernsteinFunction] = None):
    """Probe the declared inverse-diffusion growth (C, delta) on a log grid.

    When a driver is supplied, additionally require integrability of
    phi(s^(-2 delta)) at zero.
    """
    if system.a4_constants is None:
        raise CapabilityError("no inverse-diffusion constants declared")
    C, dlt = system.a4_constants
    if driver is not None and not a4_driver_integrability(driver, dlt):
        raise PreconditionError(
            f"driver {driver.name} fails integrability of phi(s^(-2*{dlt:g})) at 0")
    rng = as_generator(seed)
    ts = np.geomspace(1e-6, 10.0, t_points)
    ys = rng.normal(0.0, radius, (n_probes, system.n))
    for t in ts:
        decay = np.exp(-t * system.eigenvalues)
        for y in ys:
            nrm = system.diffusion.inv_semigroup_norm(y, decay)
            if nrm > C * t ** (-dlt) * (1 + 1e-9):
                raise PreconditionError(
                    f"inverse-diffusion probe failed at t={t:g}: "
                    f"{nrm:g} > {C:g} * t^-{dlt:g}")


def synthesize_null_controller(system: GalerkinSystem, times: np.ndarray,
                               ell: np.ndarray, *, atol: float = 1e-10,
                               max_iter: int = 64,
                               driver: Optional[BernsteinFunction] = None) -> ControllerResult:
    """Fixed-point construction of a control steering the state to zero.

    ``ell`` is a frozen strictly increasing clock on the grid with ell[0] = 0.
    Each sweep rebuilds the control from the inverse diffusion along the
    previous trajectory; the trajectory update contracts at rate
    horizon * drift_lip, which must be below one.  The declared
    inverse-diffusion constants are probed first, see :func:`verify_a4`.
    """
    times = np.asarray(times, dtype=float)
    ell = np.asarray(ell, dtype=float)
    K = len(times) - 1
    T = float(times[-1])
    if ell.shape != times.shape or ell[0] != 0.0 or np.any(np.diff(ell) <= 0):
        raise DomainError("clock must be strictly increasing from 0 on the grid")
    if system.drift_lip > 0 and T >= 1.0 / system.drift_lip:
        raise PreconditionError(
            f"horizon {T:g} is not below 1/drift_lip = {1.0 / system.drift_lip:g}")
    if not getattr(system.diffusion, "invertible", False):
        raise CapabilityError("controller needs an invertible diffusion")
    verify_a4(system, driver=driver)

    gam = system.eigenvalues
    x = np.asarray(system.x0, dtype=float)
    dts = np.diff(times)
    d_ell = np.diff(ell)
    ell_T = float(ell[-1])
    semi_x = np.exp(-np.outer(times, gam)) * x        # (K+1, n)
    E_step = np.exp(-np.outer(dts, gam))              # (K, n)

    def sweep(Y):
        v = system.diffusion.inverse_apply(Y[:-1], semi_x[:-1])
        du = -(v * d_ell[:, None]) / ell_T
        qdu = system.diffusion.apply_noise(Y[:-1], du)
        fret = system.drift(Y[:-1])
        phi = np.empty_like(semi_x)
        conv = np.empty_like(semi_x)
        phi[0] = x
        conv[0] = 0.0
        acc_q = np.zeros_like(x)
        acc_f = np.zeros_like(x)
        for k in range(K):
            acc_q = E_step[k] * (acc_q + qdu[k])
            acc_f = E_step[k] * (acc_f + fret[k] * dts[k])
            phi[k + 1] = semi_x[k + 1] + acc_q
            conv[k + 1] = acc_f
        return du, phi, conv + phi

    Y = np.tile(x, (K + 1, 1))
    history = []
    converged = False
    for _ in range(max_iter):
        _, _, Y_next = sweep(Y)
        diff = float(np.linalg.norm(Y_next - Y, axis=1).max())
        history.append(diff)
        Y = Y_next
        if diff <= atol * max(1.0, float(np.linalg.norm(x))):
            converged = True
            break
    du, phi, _ = sweep(Y)   # control consistent with the converged trajectory
    control = np.vstack([np.zeros((1, system.n)), np.cumsum(du, axis=0)])
    return ControllerResult(times, ell, control, phi[-1], Y[-1],
                            tuple(history), converged)


# ---------------------------------------------------------------------------
# Galerkin truncation error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinReport:
    truncations: tuple
    sup_sq_error: tuple        # MCEstimate of sup_t |X^n - X|^2 per truncation
    exceed_prob: tuple         # P(sup_t |X^n - X| > delta) with Wilson bounds
    delta: float


def galerkin_error(system: GalerkinSystem, truncations: Sequence[int],
                   driver: BernsteinFunction, T: float, dt: float, N: int,
                   seed: int, *, delta: float = 0.05,
                   eps: float = 1e-4) -> GalerkinReport:
    """Coupled truncation errors against the reference dimension.

    Every truncation reuses the reference replica's subordinator path and the
    first m coordinates of its Gaussian increments, so differences are purely
    projection effects.
    """
    for m in truncations:
        if m > system.n:
            raise DomainError("truncation dimension above the reference")
    times = time_grid(T, dt)
    subsystems = [truncate_system(system, m) for m in truncations]

    def statistic(d_sub, dw):
        # sup-errors squared, then the exceedances as 0/1 columns
        X_ref = advance(system, times, d_sub, dw)[0]
        sup = np.empty((len(d_sub), len(truncations)))
        for j, (m, sysm) in enumerate(zip(truncations, subsystems)):
            Xm = advance(sysm, times, d_sub, dw[..., :m])[0]
            diff = X_ref.copy()
            diff[..., :m] -= Xm
            sup[:, j] = np.linalg.norm(diff, axis=-1).max(axis=1)
        return np.hstack([sup ** 2, sup > delta])

    ests = _mc_paths(system, driver, times, N, seed, statistic, eps=eps)
    J = len(truncations)
    probs = []
    for est in ests[J:]:
        k = int(round(est.mean * N))
        probs.append((k / N, *wilson_interval(k, N)))
    return GalerkinReport(tuple(int(m) for m in truncations),
                          tuple(ests[:J]), tuple(probs), delta)
