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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bernstein import BernsteinFunction, doubling_indices, inverse
from .errors import (CapabilityError, DomainError, NumericError,
                     PreconditionError)
from .integrate import Verdict, finiteness_criterion, power_singular
from .mc import (CHUNK_DOUBLES, Level, estimate_from_blocks, level_count,
                 level_paths, merge_all, multilevel_estimates, run_parts,
                 wilson_interval)
from .moments import (BoundReport, _horizons, bound_rhs, small_time_gate,
                      stationary_gate)
from .rng import stream
from .subordinator import cell_count, grid_increments, grid_widths, time_grid


# ---------------------------------------------------------------------------
# diffusion coefficient maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalQ:
    """State-dependent diagonal diffusion Q(y) = diag(entries(y)), whose
    Hilbert-Schmidt norm is declared to stay below ``hs_bound``.

    ``entries`` must be vectorized over leading axes and mode-wise: entry k
    reads y_k only, so it maps the first m <= n modes (..., m) to the first m
    entries (..., m).  A truncation evaluates it on its own modes.
    """

    entries: Callable
    hs_bound: float


def mode_rows(values) -> Callable:
    """Map a shape (..., m) to the first m of ``values`` broadcast to it, as
    one read-only full array made once per shape: a broadcast (m,) row would
    cost numpy one inner loop per replica wherever it multiplies a slice."""
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    full = {}

    def rows(shape):
        if shape not in full:
            a = np.broadcast_to(vals[: shape[-1]], shape).copy()
            a.flags.writeable = False
            full[shape] = a
        return full[shape]

    return rows


def constant_diagonal_q(values) -> DiagonalQ:
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    rows = mode_rows(vals)
    return DiagonalQ(lambda y: rows(y.shape), float(np.linalg.norm(vals)))


# ---------------------------------------------------------------------------
# the spectral system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinSystem:
    """Finite spectral truncation: state dynamics on the first n eigenmodes.

    ``drift`` is the bounded Lipschitz nonlinearity (batched (..., n) ->
    (..., n)).  The declared bounds are contracts, checkable on random
    probes via :func:`validate_system`.  ``a4_constants`` optionally declares
    (C, delta) dominating the inverse diffusion against the semigroup,
    needed by the controller.  Every number given must be finite.
    """

    n: int
    eigenvalues: np.ndarray
    drift: Callable
    drift_bound: float
    drift_lip: float
    diffusion: DiagonalQ
    x0: np.ndarray
    a4_constants: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one eigenmode")
        ev = np.asarray(self.eigenvalues, dtype=float)
        if not (ev.shape == (self.n,) and np.all(np.isfinite(ev)) and ev[0] > 0
                and np.all(np.diff(ev) >= 0)):
            raise DomainError("eigenvalues must be finite and ascending with a "
                              "positive gap")
        if np.asarray(self.x0).shape != (self.n,):
            raise DomainError("initial state dimension mismatch")
        numbers = [self.x0, self.drift_bound, self.drift_lip,
                   self.diffusion.hs_bound, self.a4_constants or ()]
        if not all(np.all(np.isfinite(v)) for v in numbers):
            raise DomainError("initial state, declared bounds and "
                              "inverse-diffusion constants must be finite")


def zero_drift(y: np.ndarray) -> np.ndarray:
    return np.zeros_like(y)


def validate_system(system: GalerkinSystem):
    """Probe the declared drift / diffusion bounds on 64 random states of
    scale 10, up to a relative and absolute slack of 1e-9, and that the
    diffusion entries are mode-wise: on the first n - 1 modes they equal the
    first n - 1 entries of the full state, bit for bit."""
    slack = 1e-9
    y = stream(0, 0).normal(0.0, 10.0, (64, system.n))
    fy = np.linalg.norm(system.drift(y), axis=-1)
    if np.any(fy > system.drift_bound * (1 + slack) + slack):
        raise PreconditionError(
            f"drift bound violated on probes: {fy.max():g} > {system.drift_bound:g}")
    q = system.diffusion.entries(y)
    if system.n > 1 and not np.array_equal(
            system.diffusion.entries(y[:, :-1]), q[:, :-1]):
        raise PreconditionError(
            "diffusion entries are not mode-wise: on the first n - 1 modes "
            "they differ from those of the full state")
    qy = np.linalg.norm(q, axis=-1)
    if np.any(qy > system.diffusion.hs_bound * (1 + slack) + slack):
        raise PreconditionError(
            f"diffusion bound violated on probes: "
            f"{np.max(qy):g} > {system.diffusion.hs_bound:g}")


def truncate_system(system: GalerkinSystem, m: int) -> GalerkinSystem:
    """Project the system onto its first m eigenmodes (shared eigenbasis).

    The diffusion is the reference's own, evaluated on the m modes, since its
    entries are mode-wise.  The drift may read any mode, so it stays the
    projection P_m F(P_m y), evaluated on the state padded with zeros.
    """
    if m > system.n:
        raise DomainError("truncation dimension above the reference")
    if system.drift is zero_drift:
        drift = zero_drift
    else:
        def drift(y):
            padded = np.zeros(y.shape[:-1] + (system.n,))
            padded[..., :m] = y
            return system.drift(padded)[..., :m]
    return GalerkinSystem(
        n=m,
        eigenvalues=system.eigenvalues[:m],
        drift=drift,
        drift_bound=system.drift_bound,
        drift_lip=system.drift_lip,
        diffusion=system.diffusion,
        x0=np.asarray(system.x0)[:m],
        a4_constants=system.a4_constants,
    )


# ---------------------------------------------------------------------------
# exponential Euler stepping
# ---------------------------------------------------------------------------

def _aligned_empty(shape) -> np.ndarray:
    """``np.empty(shape)`` whose data start on a 64-byte boundary.  A step's
    arrays are allocated so: a vector loop over a misaligned array splits
    cache lines, and ran a (122, 64) multiply 1.6 times slower."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def steps(system: GalerkinSystem, times: np.ndarray, d_sub: np.ndarray,
          dw_std: np.ndarray, *, path: str, out: Optional[np.ndarray] = None):
    """Step replicas through a uniform grid and yield one path's (R, n)
    slice at each grid time k = 0..K: the state X for ``path="state"``, the
    stochastic convolution Z for ``path="convolution"``.  A grid refused by
    :func:`grid_widths`, or whose cells are not all equal (``np.allclose``),
    raises DomainError.

    d_sub holds subordinator increments (R, K); dw_std standard normals
    (R, K, n).  The Gaussian increment over a cell has variance equal to the
    subordinated time increment, the whole of it applied at the left node.

    The path lives in a two-slice rolling buffer, or in ``out``, (K+1, R, n),
    which then keeps every slice.  A yielded slice is live state: the caller
    must not write to it, and without ``out`` it is overwritten two steps
    on.  The state path never runs the convolution recursion; the
    convolution path still steps the state, since Q depends on it, in a
    rolling buffer.  Each step writes into preallocated arrays in the order
    E*x + phi1*f(x) + E*qn and E*(Z + qn), with the factors E and phi1 of
    the grid's first cell.  They are full (R, n) arrays, made once: a
    broadcast (n,) row would cost numpy one inner loop per replica.  The
    work arrays and rolling buffers start on 64-byte boundaries
    (:func:`_aligned_empty`).  The drift term is skipped for
    :func:`zero_drift`, whose contribution is exactly 0.
    """
    if path not in ("state", "convolution"):
        raise DomainError(f"unknown path {path!r}")
    gam = np.asarray(system.eigenvalues, dtype=float)
    dts = grid_widths(times)
    if not np.allclose(dts, dts[0]):
        raise DomainError("the stepper needs a uniform grid")
    R, K = d_sub.shape
    rootd, dw = np.sqrt(d_sub).T, dw_std.transpose(1, 0, 2)
    P = _aligned_empty((2, R, system.n)) if out is None else out
    X = P if path == "state" else _aligned_empty((2, R, system.n))
    fp = 2 if out is None else K + 1
    fx = fp if X is P else 2
    P[0] = 0.0          # Z_0; overwritten by x0 when P is X
    X[0] = system.x0
    E, phi1, qn, term = (_aligned_empty((R, system.n)) for _ in range(4))
    E[...] = np.exp(-gam * dts[0])
    phi1[...] = -np.expm1(-gam * dts[0]) / gam
    no_drift = system.drift is zero_drift
    yield P[0]
    for k in range(K):
        xk, x_next = X[k % fx], X[(k + 1) % fx]
        np.multiply(dw[k], rootd[k, :, None], out=qn)
        np.multiply(system.diffusion.entries(xk), qn, out=qn)
        if path == "convolution":
            z_next = P[(k + 1) % fp]
            np.add(P[k % fp], qn, out=z_next)
            z_next *= E
        np.multiply(E, xk, out=x_next)
        if not no_drift:
            x_next += np.multiply(phi1, system.drift(xk), out=term)
        x_next += np.multiply(E, qn, out=term)
        yield P[(k + 1) % fp]


def advance(system: GalerkinSystem, times: np.ndarray, d_sub: np.ndarray,
            dw_std: np.ndarray, *, path: str):
    """Advance replicas through a uniform grid and return one path,
    (R, K+1, n), with the arguments of :func:`steps`.

    The path is stored time-major, (K+1, R, n), so that each step reads and
    writes one contiguous (R, n) slice; the returned array is an
    ``np.moveaxis`` view of that storage in the (R, time, n) order.
    """
    R, K = d_sub.shape
    out = _aligned_empty((K + 1, R, system.n))
    for _ in steps(system, times, d_sub, dw_std, path=path, out=out):
        pass
    return np.moveaxis(out, 0, 1)


@dataclass(frozen=True)
class SolutionPath:
    times: np.ndarray
    state: np.ndarray          # (K+1, n)
    convolution: np.ndarray    # (K+1, n)
    subordinator: np.ndarray   # (K+1,) grid values of S


def simulate(system: GalerkinSystem, driver: BernsteinFunction, T: float,
             dt: float, seed: int) -> SolutionPath:
    """One replica of the system driven by ``driver`` on a uniform grid,
    drawn from stream (seed, 0) like the first chunk of every scan."""
    times = time_grid(T, dt)
    d_sub, dw = _draw(system, driver, times, stream(seed, 0), 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
        X = advance(system, times, d_sub, dw, path="state")
        Z = advance(system, times, d_sub, dw, path="convolution")
    svals = np.concatenate(([0.0], np.cumsum(d_sub[0])))
    return SolutionPath(times, X[0], Z[0], svals)


def _draw(system, driver, times, rng, m):
    """The draws of m replicas on ``times`` from ``rng``: the clock
    increments (m, K), drawn from the exponent ``driver`` or one frozen (K,)
    vector shared by every replica, then the (m, K, n) standard normals."""
    K = len(times) - 1
    if isinstance(driver, np.ndarray):
        d_sub = np.broadcast_to(driver, (m, K))
    else:
        d_sub = grid_increments(driver, times, rng, m)
    return d_sub, rng.standard_normal((m, K, system.n))


def _mc_parts(system, driver, seed, runs) -> list:
    """The SPDE Monte Carlo runs: one list of chunk partials per run
    ``(times, N, rows, key)``, of the rows (m,) or (m, n_out) that
    ``rows(d_sub, dw)`` makes of N paths on ``times``.  A statistic steps
    its draws itself, through :func:`advance` or :func:`steps`, and derives
    anything else there, as a level above 0 its :func:`coarsen` draws.

    A run is cut into chunks of at most 256 replicas and about
    ``CHUNK_DOUBLES`` normals, the last one ragged.  Chunk j is task j of
    the run under ``key`` of one :func:`run_parts` call on the streams of
    ``seed``, drawn in one call (:func:`_draw`) and stepped; the tasks are
    measured by a step slice of the largest chunk (paths x n doubles).  A
    statistic that overflows, or is nan, raises NumericError.
    """
    def sample(times, rows, rng, m):
        draws = _draw(system, driver, times, rng, m)
        with np.errstate(over="ignore", invalid="ignore"):
            values = rows(*draws)
        if not np.all(np.isfinite(values)):
            raise NumericError("a path left the range of doubles: the "
                               "statistic is not finite")
        return values

    mc_runs = []
    for times, N, rows, key in runs:
        if N < 1:
            raise DomainError("need a positive number of paths")
        chunk = max(1, min(256, CHUNK_DOUBLES // ((len(times) - 1) * system.n + 1)))
        sizes = [min(chunk, N - start) for start in range(0, N, chunk)]
        mc_runs.append((key, sizes, chunk, functools.partial(sample, times, rows)))
    return run_parts(functools.partial(stream, seed), mc_runs,
                     system.n * max(r[1][0] for r in mc_runs))


def _mc_paths(system, driver, times, N, seed, statistic):
    """One MCEstimate per column of ``statistic(d_sub, dw)`` over N paths on
    ``times``: the partials of the one run, key 0, of :func:`_mc_parts`."""
    [parts] = _mc_parts(system, driver, seed, [(times, N, statistic, 0)])
    return estimate_from_blocks(parts)


# ---------------------------------------------------------------------------
# multilevel Monte Carlo over dyadic grids
# ---------------------------------------------------------------------------

def coarsen(d_sub: np.ndarray, dw: np.ndarray):
    """The draws of the grid of twice the step, from the draws (m, K) and
    (m, K, n) of a grid of an even number K of cells.

    A coarse clock increment is the sum d1 + d2 of its two fine ones, and its
    normal is (sqrt(d1) N1 + sqrt(d2) N2) / sqrt(d1 + d2), 0 where d1 + d2 =
    0: the coarse Gaussian increment is then the sum of the two fine ones,
    so the coarse path is the fine one's exact aggregate.
    """
    d1, d2 = d_sub[:, 0::2], d_sub[:, 1::2]
    d = d1 + d2
    w = dw[:, 0::2] * np.sqrt(d1)[:, :, None]
    w += dw[:, 1::2] * np.sqrt(d2)[:, :, None]
    root = np.sqrt(d)[:, :, None]
    w /= np.where(root > 0, root, 1.0)      # w is 0 where d1 + d2 = 0
    return d, w


def multilevel_paths(system, driver, T: float, dt: float, cols: Sequence[int],
                     N: int, seed: int, statistic, *, path: str) -> tuple:
    """The levels of a multilevel run on the grid of step ``dt`` over [0, T],
    for ``statistic(h, at, P)``, which maps the path P (:func:`advance` of
    ``path``, (R, K+1, n)) of a grid of step h, its level's ``Level.dt``, to
    per-replica rows read at the grid's columns ``at``; ``cols`` are columns
    of the grid of step ``dt``, the last of them T's, the grid's end: the
    largest horizon of ``maximal`` and ``convmom``, the largest horizon
    plus 1 of ``longrun``.

    Level L, the last, has step ``dt``; level 0 has step ``dt 2^L`` with
    L = :func:`level_count` of ``cols``.  Level 0 runs the statistic on
    N paths from streams (seed, j), as :func:`_mc_paths` does.  Level l >= 1
    runs it on :func:`level_paths` paths, each stepped on its level's grid
    and, by a second :func:`advance`, on the grid above from the same draws
    by :func:`coarsen`, and takes the difference.  Every level is one run,
    keyed l, of one :func:`_mc_parts` call, in level order, and its
    partials merge in chunk order.  The level counts and streams depend on
    (N, dt, cols) alone.
    """
    L = level_count(cols)
    hs = [dt * 2 ** (L - l) for l in range(L + 1)]
    grids = [time_grid(T, h) for h in hs]

    def stepped(level, at, d_sub, dw):
        """The statistic of draws stepped on the grid of ``level``."""
        return statistic(hs[level], at, advance(system, grids[level], d_sub,
                                                dw, path=path))

    def level_rows(level):
        here = [c >> (L - level) for c in cols]
        if level == 0:
            return lambda d_sub, dw: stepped(0, here, d_sub, dw)
        there = [c >> 1 for c in here]      # the grid above: twice the step
        return lambda d_sub, dw: (stepped(level, here, d_sub, dw) - stepped(
            level - 1, there, *coarsen(d_sub, dw)))

    parts = _mc_parts(system, driver, seed, [
        (times, level_paths(N, level), level_rows(level), level)
        for level, times in enumerate(grids)])
    return tuple(Level(h, merge_all(p)) for h, p in zip(hs, parts))


def _norms_in_place(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` bit for bit, squaring ``a`` in place
    instead of into a temporary; ``a`` must be a float array."""
    np.multiply(a, a, out=a)
    return np.sqrt(np.add.reduce(a, axis=-1))


def _moment_rows(system: GalerkinSystem, p: float, theta: float) -> Callable:
    """The map of a path's columns P (R, c, n) to |Lambda^theta P|^p (R, c),
    which weights and squares P in place; the (R, 1, n) weights span each
    time's contiguous (R, n) slice."""
    weights = mode_rows(np.asarray(system.eigenvalues, dtype=float) ** theta)
    return lambda P: _norms_in_place(
        np.multiply(P, weights((len(P), 1, system.n)), out=P)) ** p


# ---------------------------------------------------------------------------
# gates for the convolution estimates
# ---------------------------------------------------------------------------

def _gate(driver: BernsteinFunction, p: float, theta: float, stationary: bool):
    """Refuse E|Lambda^theta Z_t|^p outside its integral's gate: given the
    clock Z_t is Gaussian, so this is a moment of order p/2 of a subordinator
    integral with index 2 theta, as is its right side (:func:`bound_rhs`)."""
    if not p > 0:
        raise DomainError("moment order must be positive")
    if not theta >= 0:
        raise DomainError("theta must be nonnegative")
    (stationary_gate if stationary else small_time_gate)(
        doubling_indices(driver), p / 2, 2 * theta, order="p/2",
        index="2 theta")


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def convolution_moment_scan(system: GalerkinSystem, driver: BernsteinFunction,
                            p: float, theta: float, t_grid: Sequence[float],
                            N: int, seed: int, *, dt: float) -> BoundReport:
    """Monte Carlo fractional-power moments of the convolution at several
    times, against the small-time right side.

    The estimate at step ``dt`` is multilevel (:func:`multilevel_paths`), as
    in :func:`maximal_inequality_scan`: every level reads Z of the same paths
    at each time's column.  The report keeps the levels.
    """
    _gate(driver, p, theta, stationary=False)
    t_grid = _horizons(t_grid)
    cols = [cell_count(t, dt) for t in t_grid]
    moment_rows = _moment_rows(system, p, theta)
    levels = multilevel_paths(system, driver, t_grid[-1], dt, cols, N, seed,
                              lambda h, at, Z: moment_rows(Z[:, at, :]),
                              path="convolution")
    rhs = tuple(bound_rhs(driver, p / 2, t, theta=2 * theta) for t in t_grid)
    return BoundReport(tuple(t_grid), tuple(multilevel_estimates(levels)), rhs,
                       "convolution/small_time", levels)


def maximal_inequality_scan(system: GalerkinSystem, driver: BernsteinFunction,
                            p: float, T_grid: Sequence[float], N: int,
                            seed: int, *, dt: float) -> BoundReport:
    """Grid-maximum moments of |Z| per horizon against the maximal bound.

    The gate is that of :func:`_gate` at theta = 0: stationary when every
    horizon is at least 1, small-time otherwise.  The estimate of the grid
    maximum at step ``dt`` is multilevel (:func:`multilevel_paths`): level 0
    steps N paths on the coarsest dyadic coarsening of the grid on which
    every horizon is a node, and each finer level corrects it with fewer
    paths.  Every level serves every horizon: each reads the running maximum
    of the same paths at its own column.  The report keeps the levels.
    """
    T_grid = _horizons(T_grid)
    _gate(driver, p, 0.0, stationary=T_grid[0] >= 1)
    cols = [cell_count(T, dt) for T in T_grid]

    def statistic(h, at, Z):
        running = np.maximum.accumulate(_norms_in_place(Z), axis=1)
        return running[:, at] ** p

    levels = multilevel_paths(system, driver, T_grid[-1], dt, cols, N, seed,
                              statistic, path="convolution")
    rhs = tuple(bound_rhs(driver, p / 2, T) for T in T_grid)
    return BoundReport(tuple(T_grid), tuple(multilevel_estimates(levels)), rhs,
                       "maximal", levels)


def conditional_maximal_check(system: GalerkinSystem, times: np.ndarray,
                              d_sub: np.ndarray, N: int, seed: int):
    """Frozen-path maximal moment: E^W[sup |Z|^2] against 9 ||Q||^2 ell_T.

    d_sub is one frozen vector of subordinator increments over the uniform
    grid ``times``.
    Returns (estimate, bound).
    """
    d_sub = np.asarray(d_sub, dtype=float)
    if d_sub.shape != grid_widths(times).shape:
        raise DomainError("frozen increments must match the grid")
    bound = 9.0 * system.diffusion.hs_bound ** 2 * float(d_sub.sum())

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw, path="convolution")
        return _norms_in_place(Z).max(axis=1) ** 2

    return _mc_paths(system, d_sub, times, N, seed, statistic)[0], bound


@dataclass(frozen=True)
class SmallBallResult:
    probability: float
    wilson_low: float
    wilson_high: float
    analytic_lower_bound: float


def small_ball(system: GalerkinSystem, driver: BernsteinFunction, delta: float,
               T: float, N: int, seed: int, *, dt: float) -> SmallBallResult:
    """Empirical probability that the convolution stays inside a delta-ball,
    with the analytic lower bound evaluated at an empirical constant: the
    moment of order p = 0.9 log2 inf phi(2s)/phi(s) of S_T, a second column
    of the same paths.  Where that infimum is not positive, or the factor
    kappa = max(0, 1 - 9 |Q|^2 delta^2) is 0, the bound is the trivial 0.0,
    never -0.0."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    times = time_grid(T, dt)
    idx = doubling_indices(driver)
    pu = None
    if idx.global_inf is not None and idx.global_inf > 0:
        pu = 0.9 * idx.global_inf

    def statistic(d_sub, dw):
        Z = advance(system, times, d_sub, dw, path="convolution")
        inside = (_norms_in_place(Z).max(axis=1) < delta).astype(float)
        if pu is None:
            return inside
        return np.column_stack([inside, d_sub.sum(axis=1) ** pu])

    est, *moment = _mc_paths(system, driver, times, N, seed, statistic)
    k = int(round(est.mean * N))
    lo, hi = wilson_interval(k, N)
    lb = 0.0
    if pu is not None:
        inv = inverse(driver, 1.0 / T)
        c1 = moment[0].mean * inv ** pu
        hsb = system.diffusion.hs_bound
        kappa = max(0.0, 1.0 - 9.0 * hsb ** 2 * delta ** 2)
        base = delta ** 4 * inv
        if kappa > 0.0:     # an underflowed base takes the limit as base -> 0
            lb = kappa * (1.0 - c1 * base ** -pu) if base > 0 else -math.inf
    return SmallBallResult(est.mean, lo, hi, lb)


@dataclass(frozen=True)
class LongRunReport:
    horizons: tuple
    averages: tuple            # MCEstimate of the time-averaged moment per T
    levels: tuple              # the multilevel run behind the averages


def _running_trapezoid(vals: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integral of each row of ``vals`` from its first column to
    every column, step ``dt``; the first column is 0.  Same operations, in the
    same order, as ``scipy.integrate.cumulative_trapezoid(vals, dx=dt,
    axis=1, initial=0.0)``."""
    steps = np.cumsum(dt * (vals[:, 1:] + vals[:, :-1]) / 2.0, axis=1)
    return np.pad(steps, ((0, 0), (1, 0)))


def longrun_moment_scan(system: GalerkinSystem, driver: BernsteinFunction,
                        p: float, theta: float, horizons: Sequence[float],
                        N: int, seed: int, *, dt: float) -> LongRunReport:
    """Time-averaged moments of |Lambda^theta X_t| over [1, T+1] per horizon.

    Bounded output across growing horizons is the tightness evidence for the
    long-run behaviour of the state.  The estimate at step ``dt`` is
    multilevel (:func:`multilevel_paths`) over [0, max T + 1], on grids that
    all hold t = 1 and every T + 1 as nodes: each level reads the running
    trapezoid integral from t = 1 of the same paths at each horizon's column.
    The report keeps the levels.
    """
    _gate(driver, p, theta, stationary=True)
    Ts = _horizons(horizons)
    j0 = cell_count(1.0, dt)
    cols = [j0] + [j0 + cell_count(T, dt) for T in Ts]
    moment_rows = _moment_rows(system, p, theta)

    def statistic(h, at, X):
        # the columns from t = 1 on
        start, ends = at[0], at[1:]
        vals = moment_rows(X[:, start:, :])
        running = _running_trapezoid(vals, h)
        return running[:, [e - start for e in ends]] / np.array(Ts)

    levels = multilevel_paths(system, driver, Ts[-1] + 1.0, dt, cols, N, seed,
                              statistic, path="state")
    return LongRunReport(tuple(Ts), tuple(multilevel_estimates(levels)), levels)


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
    res = finiteness_criterion(power_singular(2.0 * delta), driver, (0.0, 1.0))
    if res.verdict is Verdict.UNDETERMINED:
        raise PreconditionError("driver integrability check did not resolve")
    return res.verdict is Verdict.FINITE


def verify_a4(system: GalerkinSystem, *,
              driver: Optional[BernsteinFunction] = None):
    """Probe the declared inverse-diffusion growth (C, delta) at 25 times on
    [1e-6, 10] and 16 random states of scale 5.

    When a driver is supplied, additionally require integrability of
    phi(s^(-2 delta)) at zero.
    """
    if system.a4_constants is None:
        raise CapabilityError("no inverse-diffusion constants declared")
    C, dlt = system.a4_constants
    if driver is not None and not a4_driver_integrability(driver, dlt):
        raise PreconditionError(
            f"driver {driver.name} fails integrability of phi(s^(-2*{dlt:g})) at 0")
    ts = np.geomspace(1e-6, 10.0, 25)
    ys = stream(0, 0).normal(0.0, 5.0, (16, system.n))
    for t in ts:
        decay = np.exp(-t * system.eigenvalues)
        with np.errstate(over="ignore"):    # past the doubles: +inf
            bound = C * t ** (-dlt) * (1 + 1e-9)
        for y in ys:
            # operator norm of Q(y)^-1 diag(decay); a zero entry makes it inf
            with np.errstate(divide="ignore"):
                nrm = float(np.max(decay / np.abs(system.diffusion.entries(y))))
            if nrm > bound:
                raise PreconditionError(
                    f"inverse-diffusion probe failed at t={t:g}: "
                    f"{nrm:g} > {C:g} * t^-{dlt:g}")


def synthesize_null_controller(system: GalerkinSystem, times: np.ndarray,
                               ell: np.ndarray, *, max_iter: int = 64,
                               driver: Optional[BernsteinFunction] = None) -> ControllerResult:
    """Fixed-point construction of a control steering the state to zero.

    ``ell`` is a frozen strictly increasing clock on the grid with ell[0] = 0.
    Each sweep rebuilds the control from the inverse diffusion along the
    previous trajectory; the trajectory update contracts at rate
    horizon * drift_lip, which must be below one, and the sweeps stop once
    it moves by at most 1e-10 max(1, |x0|).  The declared inverse-diffusion
    constants are probed first, see :func:`verify_a4`.
    """
    dts = grid_widths(times)
    ell = np.asarray(ell, dtype=float)
    K = dts.size
    T = float(times[-1])
    if ell.shape != (K + 1,) or ell[0] != 0.0 or np.any(np.diff(ell) <= 0):
        raise DomainError("clock must be strictly increasing from 0 on the grid")
    if max_iter < 1:
        raise DomainError(f"need at least one sweep, got max_iter = {max_iter}")
    if system.drift_lip > 0 and T >= 1.0 / system.drift_lip:
        raise PreconditionError(
            f"horizon {T:g} is not below 1/drift_lip = {1.0 / system.drift_lip:g}")
    verify_a4(system, driver=driver)

    gam = system.eigenvalues
    x = np.asarray(system.x0, dtype=float)
    d_ell = np.diff(ell)
    ell_T = float(ell[-1])
    semi_x = np.exp(-np.outer(times, gam)) * x        # (K+1, n)
    E_step = np.exp(-np.outer(dts, gam))              # (K, n)

    def sweep(Y):
        q = system.diffusion.entries(Y[:-1])
        du = -(semi_x[:-1] / q * d_ell[:, None]) / ell_T
        qdu = q * du
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
        if diff <= 1e-10 * max(1.0, float(np.linalg.norm(x))):
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
    projection_floor: tuple    # |(I - P_m) x0|^2, the squared error at t = 0
    floor_share: tuple         # share of paths whose sup is the floor exactly
    truncations_stepped: int   # beside the reference: 0 under zero_drift


def _tail_segments(n: int, truncations: Sequence[int]) -> tuple:
    """The segment starts of :func:`_tail_sums` for the truncations of a
    reference of n modes, 0 and every distinct truncation below n, sorted,
    and the column of each truncation's tail: that of its start, or the last
    one, the empty tail, for m = n."""
    starts = sorted({0, *truncations} - {n})
    return starts, [starts.index(m) if m < n else len(starts)
                    for m in truncations]


def _tail_sums(sq: np.ndarray, starts: Sequence[int],
               out: np.ndarray) -> np.ndarray:
    """Write every tail sum_{i >= s} of the rows of ``sq`` (R, n), s in the
    sorted distinct ``starts`` below n, to the columns of ``out`` (R,
    len(starts) + 1), and 0 to its last one: one ``np.add.reduceat`` over
    the segments, then a reverse cumulative sum over them."""
    np.add.reduceat(sq, starts, axis=1, out=out[:, :-1])
    out[:, -1] = 0.0
    np.add.accumulate(out[:, ::-1], axis=1, out=out[:, ::-1])
    return out


def _sup_errors(system: GalerkinSystem, subsystems: Sequence[GalerkinSystem],
                times: np.ndarray, d_sub: np.ndarray, dw: np.ndarray,
                segments: tuple) -> np.ndarray:
    """Grid maximum of |X - X^m|^2 per replica and truncation, (R, J), X^m
    padded with zeros.  No path is stored.  ``segments`` is the
    :func:`_tail_segments` layout of the subsystems.

    At each step the reference slice is squared once, and
    :func:`_tail_sums` gives each distinct truncation's tail
    sum_{i >= m} X_i^2, the whole |X|^2 beside them.  Under a drift each
    distinct truncation steps in lock step and adds its head
    sum_{i < m} (X_i - X^m_i)^2.  Under :func:`zero_drift` the semigroup is
    diagonal and the diffusion mode-wise, so truncation m repeats modes
    0..m-1 of the reference operation for operation: its head is exactly 0,
    and only the reference steps.  The running maxima are kept per distinct
    truncation and mapped to the given order at the end.  A replica whose
    reference X left the doubles gets nan errors, since its truncations
    repeat that; one whose X is finite keeps every error its tails and
    heads give, though |X|^2 may overflow in modes a truncation repeats.
    """
    starts, cols = segments
    R = len(d_sub)
    lost = np.zeros(R, dtype=bool)
    sq = _aligned_empty((R, system.n))
    err = _aligned_empty((R, len(starts) + 1))
    sup = np.zeros(err.shape)
    paths, heads = [steps(system, times, d_sub, dw, path="state")], []
    if system.drift is not zero_drift:
        stepped = {sysm.n: (sysm, c) for sysm, c in zip(subsystems, cols)}
        paths += [steps(sysm, times, d_sub, dw[..., :sysm.n], path="state")
                  for sysm, _ in stepped.values()]
        heads = [c for _, c in stepped.values()]
    for x_ref, *x_trunc in zip(*paths):
        np.multiply(x_ref, x_ref, out=sq)
        _tail_sums(sq, starts, err)
        if not math.isfinite(np.add.reduce(err[:, 0])):
            # some |X|^2, or their sum, left the doubles: check X itself
            lost |= ~np.isfinite(x_ref).all(axis=1)
        for c, x_m in zip(heads, x_trunc):
            m = x_m.shape[1]
            d = sq[:, :m]           # the squares are summed by now
            np.subtract(x_ref[:, :m], x_m, out=d)
            np.multiply(d, d, out=d)
            err[:, c] += np.add.reduce(d, axis=1)
        np.maximum(sup, err, out=sup)
    sup[lost] = np.nan
    return sup[:, cols]


def galerkin_error(system: GalerkinSystem, truncations: Sequence[int],
                   driver: BernsteinFunction, T: float, dt: float, N: int,
                   seed: int, *, delta: float = 0.05) -> GalerkinReport:
    """Coupled truncation errors against the reference dimension.

    Every truncation reuses the reference replica's subordinator path and the
    first m coordinates of its Gaussian increments, so differences are purely
    projection effects.  No sup error falls below its truncation's
    projection floor, the error of the initial state, which
    :func:`_tail_sums` gives by the rule of every step, so a sup at t = 0
    equals it bit for bit.  Under :func:`zero_drift` each error is read off
    the reference's tail and no truncation is stepped; a drift may couple
    modes, so then every distinct truncation steps in lock step with the
    reference (see :func:`_sup_errors`).
    """
    if not delta >= 0:
        raise DomainError("delta must be nonnegative")
    times = time_grid(T, dt)
    subsystems = [truncate_system(system, m) for m in truncations]
    segments = _tail_segments(system.n, [s.n for s in subsystems])
    starts, cols = segments
    x0 = np.asarray(system.x0, dtype=float)[None]
    floors = _tail_sums(x0 * x0, starts,
                        np.empty((1, len(starts) + 1)))[0, cols]

    def statistic(d_sub, dw):
        # squared sup-errors, then the exceedances and the floor hits as
        # 0/1 columns
        sup_sq = _sup_errors(system, subsystems, times, d_sub, dw, segments)
        return np.hstack([sup_sq, np.sqrt(sup_sq) > delta, sup_sq == floors])

    ests = _mc_paths(system, driver, times, N, seed, statistic)
    J = len(truncations)
    counts = [int(round(est.mean * N)) for est in ests[J:]]
    return GalerkinReport(
        tuple(int(m) for m in truncations), tuple(ests[:J]),
        tuple((k / N, *wilson_interval(k, N)) for k in counts[:J]),
        tuple(floors.tolist()), tuple(k / N for k in counts[J:]),
        0 if system.drift is zero_drift else len(set(truncations)))
