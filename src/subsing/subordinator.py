"""Sample paths of subordinators, drawn as increments over a time grid.

Grid paths are (n_paths, K) arrays of increments over the cells of a time
grid, drawn by a sampler made once per grid and run (``grid_sampler``).
``SAMPLERS`` lists the exponents that can be drawn, each exactly: stable
and gamma increments directly, tempered stable ones at alpha = 1/2 from
their inverse Gaussian law and at every other alpha by exponential tilting
of stable ones; drift-only ones are deterministic.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .bernstein import BernsteinFunction, Catalog
from .errors import CapabilityError, DomainError

# largest h lam^alpha of one tilted piece: a piece is kept with probability
# exp(-h lam^alpha) >= 0.78, and a wider cell is split into equal pieces
TILT_PIECE_MASS = 0.25
# most tilted pieces that one pass after the first draws at once (unless a
# single piece per remaining cell is already more)
TILT_BATCH = 1 << 20


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

def _check_node_count(nodes: float) -> None:
    # numpy refuses more than intp-max bytes with ValueError or IndexError
    if not nodes * 8 <= np.iinfo(np.intp).max:
        raise DomainError(f"a grid of {nodes:g} nodes is too large to allocate")


def cell_count(T: float, dt: float) -> int:
    """Number of cells of step dt on [0, T], the column of T on the grid;
    T must be a positive multiple of dt, up to a relative 1e-9."""
    if not (0 < dt < math.inf and 0 < T < math.inf):
        raise DomainError("need 0 < dt <= T < inf")
    _check_node_count(T / dt + 1)
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise DomainError(f"T = {T:g} is not a time of the grid of step "
                          f"dt = {dt:g}")
    return n


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, T] with step dt, which must divide T."""
    return np.linspace(0.0, T, cell_count(T, dt) + 1)


def grid_widths(times) -> np.ndarray:
    """Cell widths of the grid ``times``: the one check of a grid that every
    consumer makes, refusing a node that is not finite or does not exceed
    the one before it."""
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    if not (np.all(np.isfinite(times)) and np.all(dt > 0)):
        raise DomainError("grid times must be finite and increase strictly")
    return dt


def geometric_grid(t_start: float, t_end: float, ratio: float = 1.01) -> np.ndarray:
    """Strictly increasing geometric grid from t_start to t_end (both > 0)."""
    if not (0 < t_start < t_end < math.inf and 1 < ratio < math.inf):
        raise DomainError("need 0 < t_start < t_end < inf and 1 < ratio < inf")
    n = int(math.ceil(math.log(t_end / t_start) / math.log(ratio)))
    return t_start * ratio ** np.arange(n + 1)


def power_graded_grid(T: float, q: float, n_nodes: int) -> np.ndarray:
    """Grid of n_nodes cells on [0, T] graded toward a t^(-q) singularity at 0,
    0 <= q < 1.

    Nodes sit at equal steps of t^((1-q)/2), so the spacing grows like
    t^((1+q)/2): fine where t^(-q) varies fast, coarse where it is flat.  The
    first positive node, T n_nodes^(-2/(1-q)), shrinks as cells are added.
    """
    if not 0 <= q < 1:
        raise DomainError("grading exponent must lie in [0, 1)")
    if not 0 < T < math.inf:
        raise DomainError("horizon must be positive and finite")
    _check_node_count(n_nodes + 1)
    return T * np.linspace(0.0, 1.0, n_nodes + 1) ** (2.0 / (1.0 - q))


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

class _Work(threading.local):
    """Work arrays of one sampler, one set per thread: a set is made again
    only when the shape drawn changes, and dies with the sampler."""

    shape = None
    arrays = ()

    def take(self, shape: tuple, count: int) -> tuple:
        if self.shape != shape:
            self.arrays = tuple(np.empty(shape) for _ in range(count))
            self.shape = shape
        return self.arrays


def _log_half_sin(x: np.ndarray, c: float, out: np.ndarray, tmp: np.ndarray,
                  div=None) -> np.ndarray:
    """log(sin(c x) / (2 div)) for 0 < c x < pi, into ``out``.

    With t = tan(c x / 2), sin(c x) / 2 = t / (1 + t^2): numpy's tan and log
    run on vector kernels where its sin does not, and the quotient is at
    most 1/2, so its log is never near 0 and keeps a small relative error.
    ``out`` may be ``x``; ``tmp`` is overwritten.
    """
    np.multiply(x, 0.5 * c, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=tmp)
    tmp += 1.0
    if div is not None:
        tmp *= div
    out /= tmp
    return np.log(out, out=out)


def _kanter(rng: np.random.Generator, alpha: float, log_h, u: np.ndarray,
            e: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Kanter variates h^(1/alpha) V into ``out``, for 0 < alpha < 1 and
    ``log_h`` = log(h) / alpha broadcast against it; ``u``, ``e`` and
    ``tmp`` are overwritten.  The uniform on (0, pi) is drawn as ``random``
    times pi, the bits of ``uniform(0, pi)``.  The sum is taken in logs in
    these four arrays; the log 2 of each half-sine cancels from it."""
    rng.random(out=u)
    u *= math.pi
    rng.standard_exponential(out=e)
    with np.errstate(over="ignore", under="ignore"):
        _log_half_sin(u, 1.0 - alpha, out, tmp, e)
        out *= (1.0 - alpha) / alpha
        out += _log_half_sin(u, alpha, e, tmp)
        _log_half_sin(u, 1.0, u, tmp)
        u *= 1.0 / alpha
        out -= u
        out += log_h
        return np.exp(out, out=out)


def _stable_sampler(alpha: float, h: np.ndarray):
    """draw(rng, n_paths) of (n_paths, K) variates h^(1/alpha) V for widths
    h > 0, V positive alpha-stable with E[exp(-r V)] = exp(-r^alpha).

    Kanter's representation (Ann. Probab. 3, 1975): with U uniform on
    (0, pi) and E unit exponential,
    V = sin(alpha U) / sin(U)^(1/alpha) * (sin((1-alpha) U) / E)^((1-alpha)/alpha),
    is summed in logs and exponentiated once.  At alpha = 1/2, V = 1/(2 N^2)
    from one standard normal N instead.  The scale enters before the last
    rounding, so no variate is 0 or inf unless its value is past the double
    range.  log(h) / alpha, or sqrt(1/2) h, is made once per grid."""
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    if alpha == 0.5:
        scale = math.sqrt(0.5) * h

        def levy(rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
            # Levy: V = 1/(2 N^2) has E exp(-r V) = exp(-sqrt(r))
            v = rng.standard_normal((n_paths, h.size))
            with np.errstate(over="ignore", under="ignore"):
                return np.square(np.divide(scale, v, out=v), out=v)

        return levy
    with np.errstate(over="ignore", under="ignore"):
        log_h = np.log(h) / alpha
    work = _Work()

    def draw(rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
        shape = (n_paths, h.size)
        return _kanter(rng, alpha, log_h, *work.take(shape, 3), np.empty(shape))

    return draw


def _gamma_sampler(dt: np.ndarray):
    return lambda rng, n_paths=1: rng.standard_gamma(
        np.broadcast_to(dt, (n_paths, dt.size)))


def _tilted_stable(x: np.ndarray, alpha: float, lam: float, h: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """The variates X = h^(1/alpha) V of ``x``, (n_paths, h.size), each kept
    when an independent unit exponential is at least lam X and drawn again,
    in order, until kept; ``x`` is changed in place and returned."""
    flat = x.reshape(-1)
    # a product lam X past the double range is inf, and its piece is redrawn
    with np.errstate(over="ignore"):
        todo = np.flatnonzero(rng.standard_exponential(x.shape) < lam * x)
        while todo.size:
            y = _stable_sampler(alpha, h[todo % h.size])(rng)[0]
            kept = rng.standard_exponential(todo.size) >= lam * y
            flat[todo[kept]] = y[kept]
            todo = todo[~kept]
    return x


def _inverse_gaussian_sampler(lam: float, h: np.ndarray):
    """draw(rng, n_paths) of (n_paths, K) tempered increments at alpha = 1/2.

    Over a cell of width h the exponent h (sqrt(s + lam) - sqrt(lam)) is the
    inverse Gaussian law of mean mu = h / (2 sqrt(lam)) and shape h^2 / 2.
    Michael, Schucany & Haas (Amer. Statist. 30, 1976): with N standard
    normal, a^2 = N^2 / (4 h sqrt(lam)) and r = (|a| + sqrt(1 + a^2))^2, the
    two roots of their chi-square equation are mu / r and mu r; the first is
    taken when U (1 + r) <= r for U uniform.  r is formed as a square, not
    as 1 + z - sqrt(z (2 + z)), which cancels when h is small, so no
    increment is 0 or inf unless its value is past the double range.  mu
    and 0.5 / sqrt(h sqrt(lam)) are made once; u and tmp are work arrays.
    """
    root = math.sqrt(lam)
    mu = h / (2.0 * root)
    with np.errstate(over="ignore"):
        half_a = 0.5 / np.sqrt(h * root)
    work = _Work()

    def draw(rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
        x = rng.standard_normal((n_paths, h.size))
        u, tmp = work.take(x.shape, 2)
        rng.random(out=u)
        # r past the double range makes inf * 0 = nan below, which fmax drops
        with np.errstate(over="ignore", invalid="ignore"):
            np.abs(x, out=x)
            x *= half_a                             # |a|
            np.multiply(x, x, out=tmp)
            tmp += 1.0
            x += np.sqrt(tmp, out=tmp)
            x *= x                                  # r
            np.add(x, 1.0, out=tmp)
            u *= tmp
            np.greater(u, x, out=u)                 # 1 where mu r is taken, else 0
            np.divide(mu, x, out=tmp)
            x *= u
            x *= mu
            # mu / r <= mu r as r >= 1: the larger of mu / r and (mu r or 0)
            # is the root taken, with no masked loop
            return np.fmax(x, tmp, out=x)

    return draw


def _tilting_sampler(alpha: float, lam: float, dt: np.ndarray):
    """draw(rng, n_paths) of (n_paths, K) tempered increments at alpha != 1/2,
    by exponential tilting: a stable piece X = h^(1/alpha) V is kept with
    probability exp(-lam X), exp(-h lam^alpha) on average, and a kept piece
    has the exponent h ((s + lam)^alpha - lam^alpha) (Baeumer & Meerschaert,
    J. Comput. Appl. Math. 233, 2010).  A cell with h lam^alpha >
    TILT_PIECE_MASS is split into ceil(h lam^alpha / TILT_PIECE_MASS) equal
    pieces and their values summed.  The first pass draws one piece of
    every cell; each further pass draws the same number of pieces for every
    cell with pieces left, at most TILT_BATCH in all, so the time grows
    with the number of pieces and no temporary outgrows (n_paths, K) or
    TILT_BATCH.  The pieces are counted once; each pass draws from a stable
    sampler of its pieces' widths.
    """
    # a count past the double range is inf, refused below
    with np.errstate(over="ignore"):
        pieces = np.maximum(np.ceil(dt * lam ** alpha / TILT_PIECE_MASS), 1.0)
    _check_node_count(pieces.sum())    # the pieces form a finer grid
    h = dt / pieces
    first = _stable_sampler(alpha, h)

    def draw(rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
        out = _tilted_stable(first(rng, n_paths), alpha, lam, h, rng)
        left = pieces - 1.0
        while (cells := np.flatnonzero(left > 0)).size:
            k = int(min(left[cells].min(),
                        max(1, TILT_BATCH // max(1, n_paths * cells.size))))
            hk = np.repeat(h[cells], k)
            x = _tilted_stable(_stable_sampler(alpha, hk)(rng, n_paths),
                               alpha, lam, hk, rng)
            out[:, cells] += x.reshape(n_paths, cells.size, k).sum(axis=2)
            left[cells] -= k
        return out

    return draw


def _tempered_sampler(alpha: float, lam: float, dt: np.ndarray):
    """The inverse Gaussian law at alpha = 1/2, tilting at every other."""
    if alpha == 0.5:
        return _inverse_gaussian_sampler(lam, dt)
    return _tilting_sampler(alpha, lam, dt)


def _drift_sampler(b: float, dt: np.ndarray):
    step = b * dt
    return lambda rng, n_paths=1: np.broadcast_to(step, (n_paths, step.size)).copy()


# the one list of drawable exponents: kind -> make(*phi.params, widths)
SAMPLERS = {
    Catalog.STABLE: _stable_sampler,
    Catalog.GAMMA: _gamma_sampler,
    Catalog.TEMPERED_STABLE: _tempered_sampler,
    Catalog.DRIFT_ONLY: _drift_sampler,
}


def require_sampler(phi: BernsteinFunction) -> None:
    """Raise CapabilityError unless ``phi`` has an exact grid sampler."""
    if phi.kind not in SAMPLERS:
        raise CapabilityError(f"{phi.name}: no exact grid sampler")


def grid_sampler(phi: BernsteinFunction, times: np.ndarray):
    """draw(rng, n_paths=1) -> (n_paths, K) subordinator increments over the
    cells of ``times``, exact in law for every exponent in SAMPLERS; any
    other raises CapabilityError.

    Made once per Monte Carlo run: the grid is checked and each per-grid
    constant made here, once.  Kanter's and the inverse Gaussian's
    temporaries are work arrays that the sampler owns, one set per thread,
    reused while the shape drawn stays the same; they die with the sampler.
    Every returned array is fresh, never a work array, so a draw may be
    handed to another thread.
    """
    require_sampler(phi)
    return SAMPLERS[phi.kind](*phi.params, grid_widths(times))


def grid_increments(phi: BernsteinFunction, times: np.ndarray,
                    rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """One draw of :func:`grid_sampler`: (n_paths, K) subordinator
    increments over the cells of ``times``."""
    return grid_sampler(phi, times)(rng, n_paths)
