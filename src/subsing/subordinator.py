"""Sample paths of subordinators, drawn as increments over a time grid.

Grid paths are (n_paths, K) arrays of increments over the cells of a time
grid.  Every simulable exponent has an exact sampler: stable and gamma
increments are drawn directly, tempered stable ones at alpha = 1/2 from
their inverse Gaussian law and at every other alpha by exponential tilting
of stable ones, and drift-only ones are deterministic.
"""

from __future__ import annotations

import math

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


def geometric_grid(t_start: float, t_end: float, ratio: float = 1.01) -> np.ndarray:
    """Strictly increasing geometric grid from t_start to t_end (both > 0)."""
    if not 0 < t_start < t_end or ratio <= 1:
        raise DomainError("need 0 < t_start < t_end and ratio > 1")
    n = int(math.ceil(math.log(t_end / t_start) / math.log(ratio)))
    return t_start * ratio ** np.arange(n + 1)


def power_graded_grid(T: float, q: float, n_nodes: int = 3000) -> np.ndarray:
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


def _stable(rng: np.random.Generator, size, alpha: float, h) -> np.ndarray:
    """Variates h^(1/alpha) V, V as in stable_standard, for widths h > 0
    broadcast against ``size``.  The scale enters before the last rounding,
    so no variate is 0 or inf unless its value is past the double range."""
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    with np.errstate(over="ignore", under="ignore"):
        if alpha == 0.5:
            # Levy: V = 1/(2 N^2) has E exp(-r V) = exp(-sqrt(r))
            v = rng.standard_normal(size)
            np.divide(math.sqrt(0.5) * h, v, out=v)
            return np.square(v, out=v)
        u = rng.uniform(0.0, math.pi, size)
        e = rng.standard_exponential(size)
        # Kanter in logs, in four arrays; the log 2 of each half-sine
        # cancels from the sum
        log_v, tmp = np.empty_like(u), np.empty_like(u)
        _log_half_sin(u, 1.0 - alpha, log_v, tmp, e)
        log_v *= (1.0 - alpha) / alpha
        log_v += _log_half_sin(u, alpha, e, tmp)
        _log_half_sin(u, 1.0, u, tmp)
        u *= 1.0 / alpha
        log_v -= u
        log_v += np.log(h) / alpha
        return np.exp(log_v, out=log_v)


def stable_standard(rng: np.random.Generator, size, alpha: float) -> np.ndarray:
    """Positive alpha-stable variates V with E[exp(-r V)] = exp(-r^alpha).

    Kanter's representation (Ann. Probab. 3, 1975): with U uniform on
    (0, pi) and E unit exponential,
    V = sin(alpha U) / sin(U)^(1/alpha) * (sin((1-alpha) U) / E)^((1-alpha)/alpha),
    is summed in logs and exponentiated once.  At alpha = 1/2, V = 1/(2 N^2)
    from one standard normal N instead.
    """
    return _stable(rng, size, alpha, 1.0)


def _widths(times) -> np.ndarray:
    dt = np.diff(np.asarray(times, dtype=float))
    if np.any(dt <= 0):
        raise DomainError("grid times must increase strictly")
    return dt


def stable_grid_increments(alpha: float, times: np.ndarray,
                           rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """(n_paths, K) independent stable increments over the grid cells."""
    dt = _widths(times)
    return _stable(rng, (n_paths, dt.size), alpha, dt)


def gamma_grid_increments(times: np.ndarray, rng: np.random.Generator,
                          n_paths: int = 1) -> np.ndarray:
    """Exact gamma-subordinator increments: Gamma(shape=dt, scale=1)."""
    dt = _widths(times)
    return rng.standard_gamma(np.broadcast_to(dt, (n_paths, dt.size)))


def _tilted_stable(alpha: float, lam: float, h: np.ndarray,
                   rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """(n_paths, K) variates X = h^(1/alpha) V, each kept when an independent
    unit exponential is at least lam X and drawn again, in order, until kept."""
    x = _stable(rng, (n_paths, h.size), alpha, h)
    flat = x.reshape(-1)
    # a product lam X past the double range is inf, and its piece is redrawn
    with np.errstate(over="ignore"):
        todo = np.flatnonzero(rng.standard_exponential(x.shape) < lam * x)
        while todo.size:
            y = _stable(rng, todo.size, alpha, h[todo % h.size])
            kept = rng.standard_exponential(todo.size) >= lam * y
            flat[todo[kept]] = y[kept]
            todo = todo[~kept]
    return x


def _inverse_gaussian(lam: float, h: np.ndarray, rng: np.random.Generator,
                      n_paths: int) -> np.ndarray:
    """(n_paths, K) tempered increments at alpha = 1/2.

    Over a cell of width h the exponent h (sqrt(s + lam) - sqrt(lam)) is the
    inverse Gaussian law of mean mu = h / (2 sqrt(lam)) and shape h^2 / 2.
    Michael, Schucany & Haas (Amer. Statist. 30, 1976): with N standard
    normal, a^2 = N^2 / (4 h sqrt(lam)) and r = (|a| + sqrt(1 + a^2))^2, the
    two roots of their chi-square equation are mu / r and mu r; the first is
    taken when U (1 + r) <= r for U uniform.  r is formed as a square, not
    as 1 + z - sqrt(z (2 + z)), which cancels when h is small, so no
    increment is 0 or inf unless its value is past the double range.
    """
    x = rng.standard_normal((n_paths, h.size))
    u = rng.random(x.shape)
    root = math.sqrt(lam)
    mu = h / (2.0 * root)
    tmp = np.empty_like(x)
    # r past the double range makes inf * 0 = nan below, which fmax drops
    with np.errstate(over="ignore", invalid="ignore"):
        np.abs(x, out=x)
        x *= 0.5 / np.sqrt(h * root)            # |a|
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
        # mu / r <= mu r as r >= 1: the larger of mu / r and (mu r or 0) is
        # the root taken, with no masked loop
        return np.fmax(x, tmp, out=x)


def tempered_grid_increments(alpha: float, lam: float, times: np.ndarray,
                             rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """(n_paths, K) exact tempered-stable increments.

    At alpha = 1/2 each cell is one inverse Gaussian variate, drawn from one
    normal and one uniform.  At every other alpha they come by exponential
    tilting: a stable piece X = h^(1/alpha) V is kept with probability
    exp(-lam X), exp(-h lam^alpha) on average, and a kept piece has the
    exponent h ((s + lam)^alpha - lam^alpha) (Baeumer & Meerschaert,
    J. Comput. Appl. Math. 233, 2010).  A cell with h lam^alpha >
    TILT_PIECE_MASS is split into ceil(h lam^alpha / TILT_PIECE_MASS) equal
    pieces and their values summed.  The first pass draws one piece of
    every cell; each further pass draws the same number of pieces for every
    cell with pieces left, at most TILT_BATCH in all, so the time grows
    with the number of pieces and no temporary outgrows (n_paths, K) or
    TILT_BATCH.
    """
    dt = _widths(times)
    if alpha == 0.5:
        return _inverse_gaussian(lam, dt, rng, n_paths)
    pieces = np.maximum(np.ceil(dt * lam ** alpha / TILT_PIECE_MASS), 1.0)
    _check_node_count(pieces.sum())    # the pieces form a finer grid
    h = dt / pieces
    out = _tilted_stable(alpha, lam, h, rng, n_paths)
    pieces -= 1.0
    while (cells := np.flatnonzero(pieces > 0)).size:
        k = int(min(pieces[cells].min(),
                    max(1, TILT_BATCH // max(1, n_paths * cells.size))))
        x = _tilted_stable(alpha, lam, np.repeat(h[cells], k), rng, n_paths)
        out[:, cells] += x.reshape(n_paths, cells.size, k).sum(axis=2)
        pieces[cells] -= k
    return out


def grid_increments(phi: BernsteinFunction, times: np.ndarray,
                    rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """(n_paths, K) subordinator increments over the cells of ``times``,
    exact in law for every simulable exponent; any other raises
    CapabilityError."""
    if phi.kind is Catalog.STABLE:
        return stable_grid_increments(phi.params[0], times, rng, n_paths)
    if phi.kind is Catalog.GAMMA:
        return gamma_grid_increments(times, rng, n_paths)
    if phi.kind is Catalog.TEMPERED_STABLE:
        return tempered_grid_increments(*phi.params, times, rng, n_paths)
    if phi.kind is Catalog.DRIFT_ONLY:
        dt = _widths(times)
        return np.broadcast_to(phi.params[0] * dt, (n_paths, dt.size)).copy()
    raise CapabilityError(f"{phi.name}: no exact grid sampler")
