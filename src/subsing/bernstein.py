"""Laplace exponents of subordinators and their structural analysis.

A subordinator is pinned down by its Laplace exponent phi through
E[exp(-r S_t)] = exp(-t phi(r)).  This module carries a small catalog of
exponents, a robust numeric inverse, and the doubling indices

    log2 of  inf/sup/liminf_0/limsup_inf  of  phi(2s)/phi(s)

which gate the validity regions of the general moment bounds implemented in
:mod:`subsing.moments`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, RangeError


class Catalog(Enum):
    STABLE = "stable"
    GAMMA = "gamma"
    TEMPERED_STABLE = "tempered"
    STABLE_LOG = "stablelog"
    STABLE_LOG_INV = "stableloginv"
    RATIO = "ratio"
    DRIFT_ONLY = "drift"
    CUSTOM = "custom"


@dataclass(frozen=True)
class BernsteinFunction:
    """A Laplace exponent with its catalog identity."""

    name: str
    kind: Catalog
    params: tuple
    fn: Callable[[np.ndarray], np.ndarray]

    @property
    def simulable(self) -> bool:
        """Whether its grid increments have an exact sampler."""
        return self.kind in (Catalog.STABLE, Catalog.GAMMA,
                             Catalog.TEMPERED_STABLE, Catalog.DRIFT_ONLY)

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if not np.all(arr > 0):   # NaN fails the test too
            raise DomainError(f"{self.name}: argument must be positive")
        out = self.fn(arr)
        return float(out) if np.isscalar(s) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def stable(alpha: float) -> BernsteinFunction:
    """phi(s) = s^alpha; jump density alpha/Gamma(1-alpha) s^{-1-alpha}."""
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    return BernsteinFunction(f"stable:{alpha:g}", Catalog.STABLE, (alpha,),
                             lambda s, a=alpha: s ** a)


def gamma_exponent() -> BernsteinFunction:
    """phi(s) = log(1+s); jump density s^{-1} e^{-s}."""
    return BernsteinFunction("gamma", Catalog.GAMMA, (), np.log1p)


def tempered_stable(alpha: float, lam: float) -> BernsteinFunction:
    """phi(s) = (s+lam)^alpha - lam^alpha; exponentially tempered stable jumps."""
    if not 0 < alpha < 1:
        raise DomainError("tempering requires alpha in (0, 1)")
    if not 0 < lam < math.inf:
        raise DomainError("tempering rate must be positive and finite")

    def fn(s, a=alpha, l=lam):
        # (s+l)^a - l^a without cancellation for s << l; s^a - l^a once s/l
        # is past the double range, where (1 + l/s)^a is 1 to within a l/s
        with np.errstate(over="ignore"):
            r = s / l
            return np.where(np.isinf(r), s ** a - l ** a,
                            l ** a * np.expm1(a * np.log1p(r)))[()]

    return BernsteinFunction(f"tempered:{alpha:g},{lam:g}", Catalog.TEMPERED_STABLE,
                             (alpha, lam), fn)


def stable_log(alpha: float, beta: float) -> BernsteinFunction:
    """phi(s) = s^alpha log^beta(1+s), 0 < alpha < 1, 0 <= beta <= 1-alpha."""
    if not 0 < alpha < 1 or not 0 <= beta <= 1 - alpha:
        raise DomainError("need 0 < alpha < 1 and 0 <= beta <= 1 - alpha")
    return BernsteinFunction(f"stablelog:{alpha:g},{beta:g}", Catalog.STABLE_LOG,
                             (alpha, beta),
                             lambda s, a=alpha, b=beta: s ** a * np.log1p(s) ** b)


def stable_log_inv(alpha: float, beta: float) -> BernsteinFunction:
    """phi(s) = s^alpha log^{-beta}(1+s), 0 <= beta <= alpha < 1."""
    if not 0 < alpha < 1 or not 0 <= beta <= alpha:
        raise DomainError("need 0 <= beta <= alpha < 1")
    return BernsteinFunction(f"stableloginv:{alpha:g},{beta:g}", Catalog.STABLE_LOG_INV,
                             (alpha, beta),
                             lambda s, a=alpha, b=beta: s ** a * np.log1p(s) ** (-b))


def ratio(alpha: float) -> BernsteinFunction:
    """phi(s) = s (1+s)^{-alpha}, 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise DomainError("ratio exponent must lie in (0, 1)")

    def fn(s, a=alpha):
        with np.errstate(invalid="ignore"):
            out = s * (1 + s) ** (-a)
        # at s = inf the value is s^(1-a) = inf, not inf * 0
        return np.where(np.isinf(s), s, out)

    return BernsteinFunction(f"ratio:{alpha:g}", Catalog.RATIO, (alpha,), fn)


def drift_only(b: float) -> BernsteinFunction:
    """phi(s) = b s; deterministic subordinator S_t = b t."""
    if not 0 <= b < math.inf:
        raise DomainError("drift must be nonnegative and finite")
    return BernsteinFunction(f"drift:{b:g}", Catalog.DRIFT_ONLY, (b,),
                             lambda s, b=b: b * s)


def custom(fn: Callable, name: str = "custom") -> BernsteinFunction:
    return BernsteinFunction(name, Catalog.CUSTOM, (), fn)


def parse_id(ident: str, makers: dict, what: str):
    """Build a catalog object from an id ``head:a,b,...``: the maker that
    ``makers`` holds under ``head``, called with the numbers after the colon.

    An unknown head, a non-number or a wrong parameter count raises
    DomainError; a maker's own DomainError passes through unchanged.
    """
    head, _, tail = ident.partition(":")
    make = makers.get(head.strip().lower())
    if make is None:
        raise DomainError(f"unknown {what} id '{ident}'")
    try:
        args = [float(x) for x in tail.split(",") if x]
    except ValueError as exc:
        raise DomainError(f"bad parameter list for '{ident}': {exc}") from None
    try:
        return make(*args)
    except TypeError as exc:
        raise DomainError(f"bad parameter list for '{ident}': {exc}") from None


def parse_phi(ident: str) -> BernsteinFunction:
    """The catalog exponent of an id like ``stable:0.5``."""
    return parse_id(ident, {"stable": stable, "gamma": gamma_exponent,
                            "tempered": tempered_stable, "stablelog": stable_log,
                            "stableloginv": stable_log_inv, "ratio": ratio,
                            "drift": drift_only}, "exponent")


# ---------------------------------------------------------------------------
# numeric inverse
# ---------------------------------------------------------------------------

def _geometric_mean(lo: float, hi: float) -> float:
    """sqrt(lo hi), as sqrt(lo) sqrt(hi) where lo hi is not a normal double,
    as near either end of the double range."""
    prod = lo * hi
    return (math.sqrt(prod) if sys.float_info.min <= prod < math.inf
            else math.sqrt(lo) * math.sqrt(hi))


def inverse(phi: BernsteinFunction, y: float) -> float:
    """Solve phi(s) = y by bracketed bisection.

    Returns the first midpoint s with |phi(s) - y| <= 1e-12 y, or, should the
    bracket shrink to a relative width of 1e-12 first, its geometric
    midpoint.  The tolerance is on phi, not on s: where phi is flat the root
    can be further off (5e-11 relative for gamma at y = 600).  The bracket
    is grown geometrically from s = 1; phi increasing makes the
    bisection unconditionally safe.  Raises RangeError when y cannot be
    bracketed (bounded phi) and NumericError after 200 halvings.
    """
    rtol = 1e-12
    if not y > 0:
        raise DomainError("target value must be positive")
    lo = hi = 1.0
    f = phi(1.0)
    if f < y:
        while hi < 1e300:
            lo, hi = hi, hi * 2.0
            if phi(hi) >= y:
                break
        else:
            raise RangeError(f"{phi.name}: {y} is above the attainable range")
    elif f > y:
        while lo > 1e-300:
            hi, lo = lo, lo / 2.0
            if phi(lo) <= y:
                break
        else:
            raise RangeError(f"{phi.name}: {y} is below the attainable range")
    else:
        return 1.0
    for _ in range(200):
        mid = _geometric_mean(lo, hi)
        val = phi(mid)
        if abs(val - y) <= rtol * y:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid
        if hi <= lo * (1 + rtol):
            return _geometric_mean(lo, hi)
    raise NumericError(f"{phi.name}: inversion did not converge for y={y}")


# ---------------------------------------------------------------------------
# doubling indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublingIndices:
    """Numeric doubling indices of phi: log2 extremes of phi(2s)/phi(s).

    ``None`` marks an endpoint limit that failed to stabilize.  The grid
    values are infima/suprema over a finite scan plus extrapolated endpoint
    limits, not analytic values.  ``at_zero`` and ``liminf_at_infinity`` are
    liminfs, ``at_infinity`` is a limsup.
    """

    global_inf: Optional[float]
    global_sup: Optional[float]
    at_zero: Optional[float]
    at_infinity: Optional[float]
    liminf_at_infinity: Optional[float]


def _log2_ratio(phi: BernsteinFunction, s: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        r = np.log2(phi.fn(2.0 * s) / phi.fn(s))
    return r


def _decade_extreme(phi, exponent: float, sign: int) -> float:
    # min (sign=-1) or max (sign=+1) of log2 phi(2s)/phi(s) over one decade
    s = 10.0 ** (exponent + np.linspace(0.0, 1.0, 5))
    vals = _log2_ratio(phi, s)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return math.nan
    return float(vals.max() if sign > 0 else vals.min())


def _endpoint_limit(phi, side: str, sign: int, atol: float) -> Optional[float]:
    """Extrapolated endpoint limit of the log2 doubling ratio.

    Decade exponents are doubled (8, 16, ...) and the values extrapolated by a
    Neville table in 1/exponent; that model is exact for log-type corrections
    (error ~ 1/log s) and harmless for power-type ones, which die out on their
    own.  Returns None when two successive extrapolants never agree to atol.
    """
    exps = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    xs, ys = [], []
    prev = None
    for d in exps:
        e = -d if side == "zero" else d
        v = _decade_extreme(phi, e if side == "inf" else e - 1.0, sign)
        if not math.isfinite(v):
            break
        xs.append(1.0 / d)
        ys.append(v)
        if len(xs) >= 2:
            est = _neville_at_zero(xs, ys)
            if prev is not None and abs(est - prev) <= atol:
                return est
            prev = est
    return None


def _neville_at_zero(xs, ys) -> float:
    n = len(xs)
    tab = list(ys)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tab[i] = (x1 * tab[i] - x0 * tab[i + 1]) / (x1 - x0)
    return tab[0]


def doubling_indices(phi: BernsteinFunction) -> DoublingIndices:
    """Scan phi(2s)/phi(s) over a log grid and extrapolate the endpoint limits.

    The grid has 8 points per decade on [1e-8, 1e8]; the global
    infimum/supremum fold in the extrapolated behaviour at both ends, since
    for several catalog entries the extremes are only attained asymptotically.
    """
    s = np.geomspace(1e-8, 1e8, 129)
    vals = _log2_ratio(phi, s)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return DoublingIndices(None, None, None, None, None)
    grid_min, grid_max = float(vals.min()), float(vals.max())

    zero_inf, zero_sup, inf_inf, inf_sup = (_endpoint_limit(phi, side, sign, 1e-6)
                                            for side in ("zero", "inf")
                                            for sign in (-1, +1))
    return DoublingIndices(
        min(v for v in (grid_min, zero_inf, inf_inf) if v is not None),
        max(v for v in (grid_max, zero_sup, inf_sup) if v is not None),
        zero_inf, inf_sup, inf_inf)


def log_growth_liminf(phi: BernsteinFunction) -> Optional[float]:
    """Extrapolated liminf of phi(s)/log(s) as s -> infinity.

    Values growing without bound are reported as ``inf``; None means the scan
    did not stabilize.
    """
    exps = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    vals = []
    for d in exps:
        s = 10.0 ** d
        v = phi(s) / math.log(s)
        if not math.isfinite(v):
            break
        vals.append(v)
    if len(vals) < 3:
        return math.inf if len(vals) and vals[-1] > 1e6 else None
    if vals[-1] > 10 * vals[0] and vals[-1] > vals[-2] > vals[-3]:
        return math.inf
    if abs(vals[-1] - vals[-2]) <= 1e-4 * max(1.0, abs(vals[-1])):
        return vals[-1]
    if vals[-1] > 1e8:
        return math.inf
    return None
