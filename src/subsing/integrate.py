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
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .bernstein import BernsteinFunction, Catalog, parse_id
from .errors import DomainError

OVERFLOW_GUARD = 1e300
QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-8
MAX_SLICES = 400        # dyadic slices scanned toward a singular endpoint


class IntegrandKind(Enum):
    POWER_SINGULAR = "pow"
    EXPONENTIAL = "exp"
    CONSTANT = "const"
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
    if not math.isfinite(theta):
        raise DomainError("power exponent must be finite")

    def fn(t, th=theta):
        with np.errstate(over="ignore"):    # past the double range, +inf
            return t ** (-th)

    return Integrand(IntegrandKind.POWER_SINGULAR, (theta,), fn)


def exponential(lam: float) -> Integrand:
    if not 0 < lam < math.inf:
        raise DomainError("decay rate must be positive and finite")

    def fn(t, l=lam):
        with np.errstate(over="ignore"):    # past the double range, e^-inf = 0
            return np.exp(-l * t)

    return Integrand(IntegrandKind.EXPONENTIAL, (lam,), fn)


def constant(c: float) -> Integrand:
    if not 0 <= c < math.inf:
        raise DomainError("integrands must be nonnegative and finite")
    return Integrand(IntegrandKind.CONSTANT, (c,),
                     lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c))


def time_reversed(inner: Integrand, T: float) -> Integrand:
    """f(t) = inner(T - t) on (0, T)."""
    if T <= 0:
        raise DomainError("horizon must be positive")

    def fn(t, g=inner.fn, T=T):
        return g(np.maximum(T - np.asarray(t, dtype=float), 1e-300))

    return Integrand(IntegrandKind.TIME_REVERSED, (inner, T), fn)


def parse_integrand(ident: str) -> Integrand:
    """Build an integrand from a string id like ``pow:0.5`` or ``const:1``."""
    return parse_id(ident, {"pow": power_singular, "exp": exponential,
                            "const": constant}, "integrand")


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
    from scipy import integrate
    val, _ = integrate.quad(fn, a, b, epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, limit=200)
    return val


def _core_quad(fn, a: float, b: float) -> float:
    """:func:`_quad` of fn >= 0 over a finite (a, b), +inf for an integral
    past the double range.  quad's sums overflow there, and it returns nan
    with an IntegrationWarning; that warning is dropped, and the integral is
    past the guard when that of fn / OVERFLOW_GUARD exceeds 1.  Any other
    warning is passed on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = _quad(fn, a, b)
    if math.isnan(val) and _quad(lambda t: fn(t) / OVERFLOW_GUARD, a, b) > 1.0:
        return math.inf
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return val


def improper_integral(fn, a: float, b: float, *,
                      singular_lo: bool = False) -> Finiteness:
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
        v = _slice_scan(fn, core_lo, direction="down")
        if v.verdict is not Verdict.FINITE:
            return v
        total += v.value
        lo = core_lo
    if math.isinf(b):
        core_hi = max(lo * 2, 1.0)
        v = _slice_scan(fn, core_hi, direction="up")
        if v.verdict is not Verdict.FINITE:
            return v
        total += v.value
        hi = core_hi
        if hi <= lo:
            return Finiteness(Verdict.FINITE, total)
    total += _core_quad(fn, lo, hi)
    if total > OVERFLOW_GUARD:
        return Finiteness(Verdict.INFINITE)
    return Finiteness(Verdict.FINITE, total)


def _slice_scan(fn, edge: float, direction: str) -> Finiteness:
    """Sum dyadic slices toward 0 (down) or infinity (up).

    Classification: slice masses m_k with ratio r_k = m_{k+1}/m_k settle below
    1 -> geometric tail, summed and bounded; ratios pinned at or above 1 with
    non-vanishing mass -> divergent.
    """
    masses = []
    x = edge
    total = 0.0
    for _ in range(MAX_SLICES):
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
# Stieltjes sums over the cells of a grid
# ---------------------------------------------------------------------------

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
        with np.errstate(invalid="ignore"):
            ratio = -np.expm1(-lam * h) / (lam * h)
        # (1 - e^-x) / x is 1 at x = 0, where lam h underflows
        return np.exp(-lam * a) * np.where(lam * h > 0, ratio, 1.0)
    if kind is IntegrandKind.POWER_SINGULAR:
        return _power_cell_means(f.params[0], t)
    if kind is IntegrandKind.TIME_REVERSED:
        inner, T = f.params
        if t[-1] > T:
            raise DomainError("a time-reversed integrand lives on (0, T)")
        return cell_means(inner, T - t[::-1])[::-1]
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
    if not 0 <= a < b:
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
        value = _power_integral(a, b, q)
        if math.isinf(value):
            return Finiteness(Verdict.INFINITE)
        return Finiteness(Verdict.FINITE, value)

    singular = f.singular_at_zero and a == 0.0
    return improper_integral(_criterion_integrand(f, phi), a, b,
                             singular_lo=singular)


def _criterion_integrand(f: Integrand, phi: BernsteinFunction):
    """The quadrature integrand t -> phi(f(t)) of the criterion, 0 where
    f(t) is not positive (nan included), for the scalar t that quad passes:
    ``f.fn`` and ``phi.fn`` both run on one 0-d array, without the checks
    and conversions of the ``__call__`` of ``Integrand`` and of
    ``BernsteinFunction``."""
    def integrand(t):
        x = np.array(t, dtype=float)
        x[()] = f.fn(x)
        return float(phi.fn(x)) if x > 0 else 0.0

    return integrand


def _power_integral(a: float, b: float, q: float) -> float:
    """The integral of t^-q over (a, b), where it converges (a > 0 if q >= 1,
    b finite if q <= 1); +inf past the double range."""
    e = 1.0 - q
    try:
        lo = a ** e if a > 0 else 0.0
        hi = b ** e if math.isfinite(b) else 0.0
        if e != 0.0:
            return (hi - lo) / e
    except OverflowError:
        pass
    # log(b/a), also where b/a is past the double range
    log_ratio = math.log1p((b - a) / a) if a > 0 else math.inf
    if math.isinf(log_ratio) and math.isfinite(b):
        log_ratio = math.log(b) - math.log(a)
    if e == 0.0:
        return log_ratio
    # a power is past the double range: the larger one, times
    # (1 - (b/a)^-|e|) / |e|, taken in logs
    log_value = (e * math.log(b if e > 0 else a) - math.log(abs(e))
                 + math.log(-math.expm1(-abs(e) * log_ratio)))
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


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
