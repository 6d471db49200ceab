"""Pathwise Stieltjes integrals for singular integrands, and the finiteness
criterion that decides the almost-sure dichotomy.

For a nonnegative deterministic f, the random integral of f against a
subordinator path is either almost surely finite or almost surely infinite,
and the analytic test is whether the time integral of phi(f(t)) converges.
Divergence is a legitimate outcome throughout this module, reported as the
+inf sentinel rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import integrate as _si

from .bernstein import BernsteinFunction, Catalog
from .errors import DomainError
from .subordinator import SubordinatorPath

OVERFLOW_GUARD = 1e300
QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-8


class IntegrandKind(Enum):
    POWER_SINGULAR = "pow"
    EXPONENTIAL = "exp"
    CONSTANT = "const"
    TABULATED = "tab"
    TIME_REVERSED = "rev"


@dataclass(frozen=True)
class Integrand:
    """A nonnegative deterministic integrand on (0, infinity)."""

    kind: IntegrandKind
    params: tuple
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.fn(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    @property
    def singular_at_zero(self) -> bool:
        return (self.kind is IntegrandKind.POWER_SINGULAR
                and self.params[0] > 0)


def power_singular(theta: float) -> Integrand:
    """f(t) = t^(-theta); singular at 0 for theta > 0."""
    return Integrand(IntegrandKind.POWER_SINGULAR, (theta,),
                     lambda t, th=theta: t ** (-th))


def exponential(lam: float) -> Integrand:
    if lam <= 0:
        raise DomainError("decay rate must be positive")
    return Integrand(IntegrandKind.EXPONENTIAL, (lam,),
                     lambda t, l=lam: np.exp(-l * t))


def constant(c: float) -> Integrand:
    if c < 0:
        raise DomainError("integrands must be nonnegative")
    return Integrand(IntegrandKind.CONSTANT, (c,),
                     lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c))


def tabulated(knots: np.ndarray, values: np.ndarray) -> Integrand:
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values < 0) or np.any(np.diff(knots) <= 0):
        raise DomainError("knots must increase and values be nonnegative")
    return Integrand(IntegrandKind.TABULATED, (tuple(knots), tuple(values)),
                     lambda t: np.interp(t, knots, values))


def time_reversed(inner: Integrand, T: float) -> Integrand:
    """f(t) = inner(T - t) on (0, T)."""
    if T <= 0:
        raise DomainError("horizon must be positive")

    def fn(t, g=inner.fn, T=T):
        return g(np.maximum(T - np.asarray(t, dtype=float), 1e-300))

    return Integrand(IntegrandKind.TIME_REVERSED, (inner, T), fn)


def parse_integrand(ident: str) -> Integrand:
    """Build an integrand from a string id like ``pow:0.5`` or ``const:1``."""
    head, _, tail = ident.partition(":")
    args = [float(x) for x in tail.split(",") if x] if tail else []
    head = head.strip().lower()
    if head == "pow":
        return power_singular(*args)
    if head == "exp":
        return exponential(*args)
    if head == "const":
        return constant(*args)
    raise DomainError(f"unknown integrand id '{ident}'")


# ---------------------------------------------------------------------------
# quadrature with divergence detection
# ---------------------------------------------------------------------------

class Verdict(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Finiteness:
    verdict: Verdict
    value: Optional[float] = None


def _quad(fn, a: float, b: float) -> float:
    val, _ = _si.quad(fn, a, b, epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, limit=200)
    return val


def improper_integral(fn, a: float, b: float, *, singular_lo: bool = False,
                      max_slices: int = 400) -> Finiteness:
    """Integrate fn >= 0 on (a, b) with endpoint singularities allowed.

    The possibly-singular lower endpoint (and an infinite upper endpoint) are
    handled by dyadic slices; slice masses decaying geometrically are summed
    with a tail estimate, non-decaying masses flag divergence, anything in
    between that fails to resolve is reported undetermined.
    """
    if b <= a:
        return Finiteness(Verdict.FINITE, 0.0)
    total = 0.0
    lo, hi = a, b
    if singular_lo and a == 0.0:
        core_lo = min(b, 1.0) / 2
        v = _slice_scan(fn, core_lo, direction="down", max_slices=max_slices)
        if v.verdict is not Verdict.FINITE:
            return v
        total += v.value
        lo = core_lo
    if math.isinf(b):
        core_hi = max(lo * 2, 1.0)
        v = _slice_scan(fn, core_hi, direction="up", max_slices=max_slices)
        if v.verdict is not Verdict.FINITE:
            return v
        total += v.value
        hi = core_hi
        if hi <= lo:
            return Finiteness(Verdict.FINITE, total)
    total += _quad(fn, lo, hi)
    if total > OVERFLOW_GUARD:
        return Finiteness(Verdict.INFINITE)
    return Finiteness(Verdict.FINITE, total)


def _slice_scan(fn, edge: float, direction: str, max_slices: int) -> Finiteness:
    """Sum dyadic slices toward 0 (down) or infinity (up).

    Classification: slice masses m_k with ratio r_k = m_{k+1}/m_k settle below
    1 -> geometric tail, summed and bounded; ratios pinned at or above 1 with
    non-vanishing mass -> divergent.
    """
    masses = []
    x = edge
    total = 0.0
    for _ in range(max_slices):
        if direction == "down":
            nxt = x / 2
            m = _quad(fn, nxt, x)
        else:
            nxt = x * 2
            m = _quad(fn, x, nxt)
        if not math.isfinite(m):
            return Finiteness(Verdict.INFINITE)
        masses.append(m)
        x = nxt
        total = math.fsum(masses)
        if total > OVERFLOW_GUARD:
            return Finiteness(Verdict.INFINITE)
        if m <= QUAD_ATOL * max(1.0, total) and len(masses) >= 4:
            return Finiteness(Verdict.FINITE, total)
        if len(masses) < 8:
            continue
        recent = masses[-6:]
        ratios = [recent[i + 1] / recent[i] for i in range(5) if recent[i] > 0]
        if not ratios:
            return Finiteness(Verdict.FINITE, total)
        rmax, rmin = max(ratios), min(ratios)
        if rmax < 0.999:
            # stable geometric decay closes with the tail sum m r/(1-r)
            r = ratios[-1]
            tail = masses[-1] * r / (1 - r)
            if tail <= 1e-8 * max(1.0, total):
                return Finiteness(Verdict.FINITE, total + tail)
            if rmax - rmin < 1e-6 * rmax and len(masses) >= 16:
                return Finiteness(Verdict.FINITE, total + tail)
        elif rmin >= 1.0 - 1e-9 and m > QUAD_ATOL:
            # slice masses are not decaying; the remaining slices repeat them
            return Finiteness(Verdict.INFINITE)
    return Finiteness(Verdict.UNDETERMINED)


# ---------------------------------------------------------------------------
# Stieltjes integration against a path
# ---------------------------------------------------------------------------

def stieltjes(f: Integrand, path: SubordinatorPath) -> float:
    """Pathwise integral of f against a jump path; may return +inf.

    The drift is integrated by quadrature and each jump adds f(jump time) *
    size, the left-point convention at the jump time itself (f is
    deterministic, so a jump landing exactly on a singularity has probability
    zero).  Grid paths are rows of increments, integrated by
    :func:`stieltjes_increments`.
    """
    if isinstance(path, SubordinatorPath):
        drift_part = 0.0
        if path.drift > 0:
            g = f
            if f.kind is IntegrandKind.TIME_REVERSED:
                # the drift measure is invariant under t -> T - t
                g = f.params[0]
            res = improper_integral(lambda t: path.drift * g.fn(np.asarray(t)),
                                    0.0, path.horizon,
                                    singular_lo=g.singular_at_zero)
            if res.verdict is Verdict.INFINITE:
                return math.inf
            if res.verdict is Verdict.UNDETERMINED:
                raise DomainError("drift quadrature did not resolve")
            drift_part = res.value
        with np.errstate(over="ignore"):    # overflow to +inf is the result
            jump_part = float(np.dot(f.fn(path.jump_times), path.jump_sizes)) \
                if len(path.jump_times) else 0.0
        total = drift_part + jump_part
        return math.inf if total > OVERFLOW_GUARD or math.isnan(total) else total
    raise DomainError(f"unsupported path type {type(path)!r}")


def cell_means(f: Integrand, times: np.ndarray) -> np.ndarray:
    """Average of f over each cell of ``times``: (1/h_k) * int_cell f dt.

    Every integrand kind has a closed form (product integration).  A first
    cell at 0 on which f is not integrable (``pow`` with theta >= 1) takes
    the inward value f(times[1]) instead.
    """
    t = np.asarray(times, dtype=float)
    a, h = t[:-1], np.diff(t)
    kind = f.kind
    if kind is IntegrandKind.CONSTANT:
        return np.full(h.shape, float(f.params[0]))
    if kind is IntegrandKind.EXPONENTIAL:
        lam = f.params[0]
        return np.exp(-lam * a) * (-np.expm1(-lam * h) / (lam * h))
    if kind is IntegrandKind.POWER_SINGULAR:
        return _power_cell_means(f.params[0], t)
    if kind is IntegrandKind.TIME_REVERSED:
        inner, T = f.params
        if t[-1] > T:
            raise DomainError("a time-reversed integrand lives on (0, T)")
        return cell_means(inner, T - t[::-1])[::-1]
    if kind is IntegrandKind.TABULATED:
        # the interpolant is linear between knots, so the trapezoid rule on
        # the grid merged with the inner knots is exact
        knots, values = np.asarray(f.params[0]), np.asarray(f.params[1])
        u = np.union1d(t, knots[(knots > t[0]) & (knots < t[-1])])
        fu = np.interp(u, knots, values)
        pieces = 0.5 * (fu[1:] + fu[:-1]) * np.diff(u)
        return np.add.reduceat(pieces, np.searchsorted(u, a)) / h
    raise DomainError(f"no cell-mean rule for integrand kind {kind!r}")


def _power_cell_means(theta: float, t: np.ndarray) -> np.ndarray:
    b, h = t[1:], np.diff(t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_ratio = np.log1p(h / t[:-1])        # log(b / a); inf when a = 0
        if theta == 1.0:
            out = log_ratio / h
        else:
            # (b^(1-theta) - a^(1-theta)) / ((1-theta) h) without cancellation
            out = -b ** (1.0 - theta) * np.expm1((theta - 1.0) * log_ratio) \
                / ((1.0 - theta) * h)
    if t[0] == 0.0 and theta >= 1.0:
        out[0] = t[1] ** -theta
    return out


def stieltjes_increments(f: Integrand, times: np.ndarray,
                         increments: np.ndarray) -> np.ndarray:
    """Sums of cell averages of f times the increments, per replica row (R, K)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = increments @ cell_means(f, times)
    out[out > OVERFLOW_GUARD] = np.inf
    return out


# ---------------------------------------------------------------------------
# finiteness criterion and the dichotomy verdict
# ---------------------------------------------------------------------------

class ZeroOne(Enum):
    AS_FINITE = "almost surely finite"
    AS_INFINITE = "almost surely infinite"
    UNDETERMINED = "undetermined"


def finiteness_criterion(f: Integrand, phi: BernsteinFunction,
                         domain: Tuple[float, float]) -> Finiteness:
    """Evaluate the integral of phi(f(t)) over the domain, or detect divergence.

    Power integrands under a stable exponent reduce in closed form; everything
    else goes through slice-scan quadrature.
    """
    a, b = domain
    if a < 0 or b <= a:
        raise DomainError("domain must satisfy 0 <= a < b")
    if f.kind is IntegrandKind.TIME_REVERSED:
        inner, T = f.params
        lo, hi = max(T - b, 0.0), T - a
        if hi <= lo:
            return Finiteness(Verdict.FINITE, 0.0)
        return finiteness_criterion(inner, phi, (lo, hi))
    if f.kind is IntegrandKind.CONSTANT:
        c = f.params[0]
        if c == 0.0:
            return Finiteness(Verdict.FINITE, 0.0)
        if math.isinf(b):
            return Finiteness(Verdict.INFINITE)
        return Finiteness(Verdict.FINITE, (b - a) * phi(c))
    if f.kind is IntegrandKind.POWER_SINGULAR and phi.kind is Catalog.STABLE:
        theta = f.params[0]
        alpha = phi.params[0]
        q = alpha * theta       # integrand of the criterion is t^(-q)
        if a == 0.0 and q >= 1.0:
            return Finiteness(Verdict.INFINITE)
        if math.isinf(b) and q <= 1.0:
            return Finiteness(Verdict.INFINITE)
        lo = a ** (1.0 - q) if a > 0 else 0.0
        hi = b ** (1.0 - q) if math.isfinite(b) else 0.0
        return Finiteness(Verdict.FINITE, (hi - lo) / (1.0 - q))

    def integrand(t):
        ft = f.fn(np.asarray(t, dtype=float))
        ft = float(ft) if np.ndim(ft) == 0 else ft
        if np.ndim(ft) == 0:
            return phi(ft) if ft > 0 else 0.0
        out = np.zeros_like(ft)
        pos = ft > 0
        if np.any(pos):
            out[pos] = phi.fn(ft[pos])
        return out

    singular = f.singular_at_zero and a == 0.0
    return improper_integral(integrand, a, b, singular_lo=singular)


def zero_one_verdict(f: Integrand, phi: BernsteinFunction,
                     domain: Tuple[float, float] = (0.0, 1.0)) -> ZeroOne:
    """Map the finiteness criterion to the almost-sure dichotomy."""
    return as_zero_one(finiteness_criterion(f, phi, domain))


def as_zero_one(res: Finiteness) -> ZeroOne:
    """The almost-sure dichotomy that a finiteness criterion result gives."""
    if res.verdict is Verdict.FINITE:
        return ZeroOne.AS_FINITE
    if res.verdict is Verdict.INFINITE:
        return ZeroOne.AS_INFINITE
    return ZeroOne.UNDETERMINED
