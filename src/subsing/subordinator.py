"""Sample paths of subordinators and their time inverses.

Grid paths are (n_paths, K) arrays of increments over the cells of a time
grid: stable and gamma increments are exact in law, drift-only ones are
deterministic, and every other simulable exponent bins the jumps of its
compound Poisson approximation into the cells.  A single jump path
(SubordinatorPath) keeps those jumps above a cutoff eps, with the small
jumps folded into an extra drift, so every path is nondecreasing.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinFunction, Catalog
from .errors import CapabilityError, DomainError, RangeError
from .rng import as_generator

INV_CDF_KNOTS = 1 << 14
# equal cells of u in the guide table of the jump-size inversion, and the
# number of uniforms inverted per pass (bounds the temporaries of a draw)
GUIDE_CELLS = 16 * INV_CDF_KNOTS
LOOKUP_SLICE = 8192
# drivers whose increments grid_increments draws exactly; every other
# simulable exponent takes the compound Poisson route through its jump table
EXACT_GRID_KINDS = frozenset({Catalog.STABLE, Catalog.GAMMA, Catalog.DRIFT_ONLY})


@dataclass(frozen=True)
class SubordinatorPath:
    """Drift rate plus a finite, time-sorted jump list on (0, T]."""

    horizon: float
    drift: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    provenance: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        t, j = self.jump_times, self.jump_sizes
        if self.drift < 0:
            raise DomainError("drift must be nonnegative")
        if len(t) != len(j):
            raise DomainError("jump times and sizes must align")
        if len(t) and (t[0] <= 0 or t[-1] > self.horizon or np.any(np.diff(t) <= 0)):
            raise DomainError("jump times must be strictly sorted within (0, T]")
        if np.any(j <= 0):
            raise DomainError("jump sizes must be positive")

    @property
    def total_mass(self) -> float:
        return self.drift * self.horizon + float(self.jump_sizes.sum())


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, T] with step dt, which must divide T."""
    if T <= 0 or dt <= 0 or dt > T:
        raise DomainError("need 0 < dt <= T")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * T:
        raise DomainError(f"dt = {dt:g} does not divide T = {T:g}")
    return np.linspace(0.0, T, n + 1)


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
    if T <= 0:
        raise DomainError("horizon must be positive")
    return T * np.linspace(0.0, 1.0, n_nodes + 1) ** (2.0 / (1.0 - q))


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def stable_standard(rng: np.random.Generator, size, alpha: float) -> np.ndarray:
    """Positive alpha-stable variates V with E[exp(-r V)] = exp(-r^alpha).

    Kanter's representation: with U uniform on (0, pi) and E unit exponential,
    V = sin(alpha U) / sin(U)^(1/alpha) * (sin((1-alpha) U) / E)^((1-alpha)/alpha).
    """
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    u = rng.uniform(0.0, math.pi, size)
    e = rng.standard_exponential(size)
    a = alpha
    return (np.sin(a * u) / np.sin(u) ** (1.0 / a)
            * (np.sin((1.0 - a) * u) / e) ** ((1.0 - a) / a))


def stable_grid_increments(alpha: float, times: np.ndarray,
                           rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """(n_paths, K) independent stable increments over the grid cells."""
    dt = np.diff(np.asarray(times, dtype=float))
    if np.any(dt <= 0):
        raise DomainError("grid times must increase strictly")
    v = stable_standard(rng, (n_paths, dt.size), alpha)
    return dt ** (1.0 / alpha) * v


def gamma_grid_increments(times: np.ndarray, rng: np.random.Generator,
                          n_paths: int = 1) -> np.ndarray:
    """Exact gamma-subordinator increments: Gamma(shape=dt, scale=1)."""
    dt = np.diff(np.asarray(times, dtype=float))
    if np.any(dt <= 0):
        raise DomainError("grid times must increase strictly")
    return rng.gamma(shape=np.broadcast_to(dt, (n_paths, dt.size)), scale=1.0)


# ---------------------------------------------------------------------------
# compound Poisson sampling of a general simulable exponent
# ---------------------------------------------------------------------------

class _JumpSampler:
    """Inverse-CDF sampler for the jump measure restricted to [eps, inf).

    The restricted tail CDF is tabulated on log-spaced knots and inverted by
    linear interpolation; catalogs with an exact Pareto tail (stable) use
    the closed form instead of the table.  The interpolation segment of a
    uniform u is found by indexed search (Chen & Asau 1974; Devroye 1986,
    section III.2.4): a guide table over GUIDE_CELLS equal cells of u names
    the segment of every u in a cell that no knot splits, and only the few
    split cells fall back to a binary search.
    """

    def __init__(self, phi: BernsteinFunction, eps: float):
        trip = phi.triplet
        self.eps = eps
        self.rate = trip.tail_mass(eps)
        self.alpha = phi.params[0] if phi.kind is Catalog.STABLE else None
        self.table_gap = 0.0
        self.knot_count = 0
        if self.alpha is not None or self.rate == 0.0:
            return
        if trip.density is None:
            raise CapabilityError(f"{phi.name}: no jump density to sample from")
        # upper cut where the remaining tail is negligible vs the total rate
        hi = eps
        while trip.tail_mass(hi) > 1e-14 * self.rate and hi < 1e12:
            hi *= 2.0
        knots = np.geomspace(eps, hi, INV_CDF_KNOTS)
        mass_above = np.array([trip.tail_mass(k) for k in knots])
        cdf = (self.rate - mass_above) / self.rate
        cdf[0] = 0.0
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        cdf[-1] = 1.0
        self._cdf = cdf
        self._knots = knots
        self.table_gap = float(np.max(np.diff(cdf)))
        self.knot_count = INV_CDF_KNOTS
        # the same slopes np.interp uses; a flat CDF step gives inf, and no
        # u < 1 ever lands on such a step
        with np.errstate(divide="ignore"):
            self._slope = np.diff(knots) / np.diff(cdf)
        # segment of each cell's left end (the last segment at u = 1), built
        # in slices to keep the temporaries small; then -1 marks a cell whose
        # two ends lie in different segments
        seg = np.empty(GUIDE_CELLS + 1, dtype=np.int32)
        for a in range(0, GUIDE_CELLS + 1, LOOKUP_SLICE):
            edges = np.arange(a, min(a + LOOKUP_SLICE, GUIDE_CELLS + 1)) / GUIDE_CELLS
            seg[a:a + edges.size] = np.searchsorted(cdf, edges, side="right") - 1
        np.minimum(seg, INV_CDF_KNOTS - 2, out=seg)
        split = seg[:-1] != seg[1:]
        self._guide = seg[:-1]
        self._guide[split] = -1

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.rate == 0.0:
            return np.empty(size)
        return self.quantile(rng.uniform(0.0, 1.0, size))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Jump sizes at uniforms ``u`` in [0, 1).

        On the table this equals ``np.interp(u, cdf, knots)`` bit for bit:
        the same segment, the same slope and arithmetic, the exact value at
        a knot, and np.interp's fallback from the segment's right end.
        """
        u = np.asarray(u, dtype=float)
        if self.alpha is not None:
            return self.eps * (1.0 - u) ** (-1.0 / self.alpha)
        cdf, knots, slope = self._cdf, self._knots, self._slope
        flat = u.reshape(-1)
        out = np.empty(flat.size)
        for a in range(0, flat.size, LOOKUP_SLICE):
            us = flat[a:a + LOOKUP_SLICE]
            # u * GUIDE_CELLS is exact (a power of two), so the cell is too
            i = self._guide[(us * GUIDE_CELLS).astype(np.int32)]
            split = np.flatnonzero(i < 0)
            i[split] = np.searchsorted(cdf, us[split], side="right") - 1
            r = slope[i] * (us - cdf[i]) + knots[i]
            # np.interp returns the knot value at a knot; slope * 0 does the
            # same unless the slope overflowed, which gives nan like the
            # cases np.interp retries from the segment's right end
            bad = np.flatnonzero(np.isnan(r))
            if bad.size:
                ib, ub = i[bad], us[bad]
                r[bad] = np.where(ub == cdf[ib], knots[ib],
                                  slope[ib] * (ub - cdf[ib + 1]) + knots[ib + 1])
            out[a:a + LOOKUP_SLICE] = r
        return out.reshape(u.shape)

    def record(self) -> dict:
        """Table facts for a run record: knot count (0 without a table) and
        the largest CDF step between knots."""
        return {"inv_cdf_knots": self.knot_count,
                "inv_cdf_max_gap": self.table_gap}


_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _cached_jump_sampler(phi: BernsteinFunction, eps: float) -> _JumpSampler:
    return _JumpSampler(phi, eps)


def jump_sampler(phi: BernsteinFunction, eps: float) -> _JumpSampler:
    """The jump sampler of (phi, eps), built once and then shared.

    The lock makes concurrent Monte Carlo blocks wait for the first build
    instead of building the same table again.
    """
    with _TABLE_LOCK:
        return _cached_jump_sampler(phi, eps)


def simulate_general(phi: BernsteinFunction, T: float, eps: float,
                     seed=0) -> SubordinatorPath:
    """Compound Poisson approximation of a simulable subordinator.

    Jumps of size >= eps arrive at rate nu([eps, inf)); smaller jumps are
    compensated by adding their mean rate to the drift, which preserves
    monotone paths.  The path is one replica of :func:`cp_jump_batch` with
    its jump times sorted; the cutoff and table facts are recorded in the
    path diagnostics.
    """
    if T <= 0:
        raise DomainError("horizon must be positive")
    drift, _, times, sizes = cp_jump_batch(phi, T, eps, as_generator(seed), 1)
    sampler = jump_sampler(phi, eps)
    diag = {
        "eps": eps,
        "jump_rate": sampler.rate,
        "small_jump_drift": phi.triplet.small_jump_mean(eps),
        **sampler.record(),
    }
    provenance = "DriftOnly" if phi.kind is Catalog.DRIFT_ONLY \
        else f"CompoundPoisson(eps={eps:g})"
    return SubordinatorPath(T, drift, np.sort(times), sizes, provenance, diag)


def cp_jump_batch(phi: BernsteinFunction, T: float, eps: float,
                  rng: np.random.Generator, n_paths: int):
    """Vectorized compound Poisson jumps for n_paths replicas.

    Returns (drift, counts, times, sizes) with times/sizes flattened in path
    order; segment boundaries follow from counts.
    """
    if eps <= 0:
        raise DomainError("jump cutoff must be positive")
    if not phi.simulable:
        raise CapabilityError(f"{phi.name}: no jump structure attached")
    trip = phi.triplet
    sampler = jump_sampler(phi, eps)
    counts = rng.poisson(sampler.rate * T, n_paths)
    total = int(counts.sum())
    times = rng.uniform(0.0, T, total)
    sizes = sampler.draw(rng, total)
    drift = trip.drift + trip.small_jump_mean(eps)
    return drift, counts, times, sizes


def grid_increments(phi: BernsteinFunction, times: np.ndarray,
                    rng: np.random.Generator, n_paths: int = 1,
                    eps: float = 1e-4) -> np.ndarray:
    """(n_paths, K) subordinator increments over the cells of ``times``.

    Stable and gamma exponents are exact in law; drift-only is deterministic;
    any other simulable exponent goes through the compound Poisson route with
    cutoff eps, jumps binned into cells.
    """
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    if phi.kind is Catalog.STABLE:
        return stable_grid_increments(phi.params[0], times, rng, n_paths)
    if phi.kind is Catalog.GAMMA:
        return gamma_grid_increments(times, rng, n_paths)
    if phi.kind is Catalog.DRIFT_ONLY:
        return np.broadcast_to(phi.params[0] * dt, (n_paths, dt.size)).copy()
    drift, counts, jt, js = cp_jump_batch(phi, float(times[-1]), eps, rng, n_paths)
    out = np.tile(drift * dt, (n_paths, 1))
    path_of = np.repeat(np.arange(n_paths), counts)
    # jump at exactly times[k] belongs to the cell ending there
    cell = np.searchsorted(times[1:], jt, side="left")
    np.add.at(out, (path_of, cell), js)
    return out


# ---------------------------------------------------------------------------
# path evaluation and inversion
# ---------------------------------------------------------------------------

def evaluate(path: SubordinatorPath, t: float) -> float:
    """S_t under the right-continuous convention (a jump at t is included)."""
    if t < 0 or t > path.horizon:
        raise DomainError("time outside [0, T]")
    k = np.searchsorted(path.jump_times, t, side="right")
    return path.drift * t + float(path.jump_sizes[:k].sum())


def inverse_time(path: SubordinatorPath, t: float) -> float:
    """Right-continuous generalized inverse inf{s >= 0 : S_s > t}."""
    if t < 0:
        raise DomainError("level must be nonnegative")
    if t >= path.total_mass:
        raise RangeError("level at or above the terminal value")
    b = path.drift
    jt, js = path.jump_times, path.jump_sizes
    post = b * jt + np.cumsum(js)          # value right at each jump time
    pre = post - js                        # left limit at each jump time
    k = int(np.searchsorted(post, t, side="right"))
    if k == len(jt):
        return float(jt[-1] + (t - post[-1]) / b) if len(jt) else t / b
    if t >= pre[k]:
        return float(jt[k])                # level crossed inside jump k
    if k == 0:
        return t / b
    return float(jt[k - 1] + (t - post[k - 1]) / b)
