"""Pathwise Stieltjes integrals for singular integrands, and the finiteness
criterion that decides the almost-sure dichotomy.

For a nonnegative deterministic f, the random integral of f against a
subordinator path is either almost surely finite or almost surely infinite,
and the analytic test is whether the time integral of phi(f(t)) converges.
Divergence is a legitimate outcome throughout this module, reported as the
+inf sentinel rather than an error.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .bernstein import BernsteinFunction, Catalog, parse_id
from .errors import DomainError
from .subordinator import grid_widths

OVERFLOW_GUARD = 1e300
QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-8
MAX_SLICES = 400        # dyadic slices scanned toward a singular endpoint
GAUSS_NODES = 20        # nodes of the Gauss-Legendre rule on a piece
MAX_BISECTIONS = 200    # bisections of the pieces of one integral
LARGEST = sys.float_info.max


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
    """A criterion result, with how quadrature made it, for the record: the
    pieces the rule was applied on and the integrand evaluations, 0 for a
    closed form."""

    verdict: Verdict
    value: Optional[float] = None
    pieces: int = field(default=0, compare=False)
    evaluations: int = field(default=0, compare=False)


@functools.cache
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GAUSS_NODES-point Gauss-Legendre rule on
    (-1, 1).  The nodes are the eigenvalues of its Jacobi matrix (Golub &
    Welsch, Math. Comp. 23, 1969), made symmetric; each weight is
    2 / ((1 - x^2) P_n'(x)^2), with P_n' from the Legendre recurrence.
    Built on first use."""
    n = GAUSS_NODES
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    x = (x - x[::-1]) / 2
    prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    dp = n * (prev - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False   # shared by every caller
    return x, w


def _gauss_sums(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rule on every (lo_i, hi_i), from one call of fn on all nodes."""
    x, w = _gauss_legendre()
    half = (hi - lo) / 2
    t = (lo + half)[:, None] + half[:, None] * x
    vals = np.asarray(fn(t.ravel()), dtype=float).reshape(t.shape)
    return half * (vals @ w)


def _integrate_pieces(fn, lo: np.ndarray, hi: np.ndarray, call: np.ndarray,
                      calls: int) -> Tuple[np.ndarray, int, int]:
    """Integrate fn >= 0 over the pieces (lo_i, hi_i), piece i a part of
    integral call_i of ``calls``; returns the integrals, the final count of
    pieces and the count of integrand evaluations.

    A piece's value is the rule on its two halves, and its error estimate
    the distance of that value from the rule on the whole piece.  While the
    error estimates of an integral sum past max(QUAD_ATOL, QUAD_RTOL |value|),
    its pieces whose estimate is above their even share of that bound are
    bisected, those of all integrals in one integrand call, up to
    MAX_BISECTIONS per integral.  An integral past OVERFLOW_GUARD or not a
    number is left as it is.  All of it runs under ``np.errstate``: a sum
    past the double range is +inf.
    """
    with np.errstate(all="ignore"):
        mid = lo + (hi - lo) / 2
        sums = _gauss_sums(fn, np.concatenate([lo, lo, mid]),
                           np.concatenate([hi, mid, hi]))
        whole, left, right = np.split(sums, 3)
        evaluations = sums.size * GAUSS_NODES
        bisections = np.zeros(calls, dtype=int)
        closed, closed_pieces = np.zeros(calls), 0
        while True:
            val = left + right
            err = np.abs(whole - val)
            total = closed + np.bincount(call, val, calls)
            tol = np.maximum(QUAD_ATOL, QUAD_RTOL * np.abs(total))
            share = tol / np.maximum(np.bincount(call, minlength=calls), 1)
            split = err > share[call]
            wanted = bisections + np.bincount(call[split], minlength=calls)
            refine = ((np.bincount(call, err, calls) > tol)
                      & (total <= OVERFLOW_GUARD) & (wanted <= MAX_BISECTIONS))
            live = refine[call]
            split &= live
            if not split.any():
                return total, closed_pieces + val.size, evaluations
            closed += np.bincount(call[~live], val[~live], calls)
            closed_pieces += int(np.count_nonzero(~live))
            bisections = np.where(refine, wanted, bisections)
            # the halves of a bisected piece are new pieces, their wholes known
            stay = live & ~split
            kept = int(np.count_nonzero(stay))
            lo = np.concatenate([lo[stay], lo[split], mid[split]])
            hi = np.concatenate([hi[stay], mid[split], hi[split]])
            whole = np.concatenate([whole[stay], left[split], right[split]])
            call = np.concatenate([call[stay], call[split], call[split]])
            mid = lo + (hi - lo) / 2
            sums = _gauss_sums(fn, np.concatenate([lo[kept:], mid[kept:]]),
                               np.concatenate([mid[kept:], hi[kept:]]))
            evaluations += sums.size * GAUSS_NODES
            new_left, new_right = np.split(sums, 2)
            left = np.concatenate([left[stay], new_left])
            right = np.concatenate([right[stay], new_right])


def _core(fn, lo: float, hi: float) -> Finiteness:
    """The integral of fn >= 0 over a finite (lo, hi), on pieces no wider
    than a factor of 2 (the first from 0 to min(hi, 1) where lo is 0)."""
    start = np.float64(lo if lo > 0 else min(hi, 1.0))
    k = math.ceil(math.log2(hi) - math.log2(start))
    with np.errstate(over="ignore"):
        edges = np.ldexp(start, np.arange(k + 1))
    edges = np.concatenate([[0.0] if lo == 0 else [], edges[edges < hi], [hi]])
    n = edges.size - 1
    value, pieces, evaluations = _integrate_pieces(
        fn, edges[:-1], edges[1:], np.zeros(n, dtype=int), 1)
    return Finiteness(Verdict.FINITE, float(value[0]), pieces, evaluations)


def _joined(done: Finiteness, part: Finiteness) -> Finiteness:
    """The result of an integral split in two, ``done`` finite."""
    value = done.value + part.value if part.verdict is Verdict.FINITE else None
    return Finiteness(part.verdict, value, done.pieces + part.pieces,
                      done.evaluations + part.evaluations)


def improper_integral(fn, a: float, b: float, *,
                      singular_lo: bool = False) -> Finiteness:
    """Integrate fn >= 0 on (a, b) with endpoint singularities allowed.

    The possibly-singular lower endpoint (and an infinite upper endpoint) are
    handled by dyadic slices; slice masses decaying geometrically are summed
    with a tail estimate, non-decaying masses flag divergence, anything in
    between that fails to resolve is reported undetermined.  ``fn`` takes an
    array of nodes.
    """
    if b <= a:
        return Finiteness(Verdict.FINITE, 0.0)
    res = Finiteness(Verdict.FINITE, 0.0)
    lo, hi = a, b
    if singular_lo and a == 0.0:
        lo = min(b, 1.0) / 2
        res = _joined(res, _slice_scan(fn, lo, direction="down"))
        if res.verdict is not Verdict.FINITE:
            return res
    if math.isinf(b):
        hi = min(max(lo * 2, 1.0), LARGEST)
        res = _joined(res, _slice_scan(fn, hi, direction="up"))
        if res.verdict is not Verdict.FINITE:
            return res
    res = _joined(res, _core(fn, lo, hi))
    # a sum past the double range or past the guard is +inf, and so is nan,
    # which only an integrand past that range gives (inf * 0 in phi)
    if not res.value <= OVERFLOW_GUARD:
        return replace(res, verdict=Verdict.INFINITE, value=None)
    return res


def _slice_scan(fn, edge: float, direction: str) -> Finiteness:
    """Sum dyadic slices toward 0 (down) or infinity (up).

    Classification: slice masses m_k with ratio r_k = m_{k+1}/m_k settle below
    1 -> geometric tail, summed and bounded; ratios pinned at or above 1 with
    non-vanishing mass -> divergent.  The slices are integrated in batches
    of 8, 16, 32, ... and read in order.
    """
    masses = []
    pieces = evaluations = 0

    def result(verdict, value=None):
        return Finiteness(verdict, value, pieces, evaluations)

    down = direction == "down"
    x, batch = edge, 8
    while len(masses) < MAX_SLICES:
        n = min(batch, MAX_SLICES - len(masses))
        steps = np.arange(n + 1)
        with np.errstate(over="ignore"):    # slices past the range are empty
            ends = np.minimum(np.ldexp(np.float64(x), -steps if down else steps),
                              LARGEST)
        lo, hi = (ends[1:], ends[:-1]) if down else (ends[:-1], ends[1:])
        batch_masses, p, e = _integrate_pieces(fn, lo, hi, np.arange(n), n)
        pieces, evaluations = pieces + p, evaluations + e
        x, batch = float(ends[-1]), 2 * batch
        for m in batch_masses.tolist():
            if not math.isfinite(m):
                return result(Verdict.INFINITE)
            masses.append(m)
            total = math.fsum(masses)
            if total > OVERFLOW_GUARD:
                return result(Verdict.INFINITE)
            if m <= QUAD_ATOL * max(1.0, total) and len(masses) >= 4:
                return result(Verdict.FINITE, total)
            if len(masses) < 8:
                continue
            recent = masses[-6:]
            ratios = [recent[i + 1] / recent[i] for i in range(5) if recent[i] > 0]
            if not ratios:
                return result(Verdict.FINITE, total)
            rmax, rmin = max(ratios), min(ratios)
            if rmax < 0.999:
                # stable geometric decay closes with the tail sum m r/(1-r)
                r = ratios[-1]
                tail = masses[-1] * r / (1 - r)
                if tail <= 1e-8 * max(1.0, total):
                    return result(Verdict.FINITE, total + tail)
                if rmax - rmin < 1e-6 * rmax and len(masses) >= 16:
                    return result(Verdict.FINITE, total + tail)
            elif rmin >= 1.0 - 1e-9 and m > QUAD_ATOL:
                # slice masses are not decaying; the remaining slices repeat them
                return result(Verdict.INFINITE)
    return result(Verdict.UNDETERMINED)


# ---------------------------------------------------------------------------
# Stieltjes sums over the cells of a grid
# ---------------------------------------------------------------------------

def cell_means(f: Integrand, times: np.ndarray) -> np.ndarray:
    """Average of f over each cell of ``times``: (1/h_k) * int_cell f dt.

    Every integrand kind has a closed form (product integration).  A first
    cell at 0 on which f is not integrable (``pow`` with theta >= 1) takes
    the inward value f(times[1]) instead.  The grid is checked by
    :func:`grid_widths`.
    """
    t = np.asarray(times, dtype=float)
    a, h = t[:-1], grid_widths(t)
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
        return _power_cell_means(f.params[0], t, h)
    if kind is IntegrandKind.TIME_REVERSED:
        inner, T = f.params
        if t[-1] > T:
            raise DomainError("a time-reversed integrand lives on (0, T)")
        return cell_means(inner, T - t[::-1])[::-1]
    raise DomainError(f"no cell-mean rule for integrand kind {kind!r}")


def _power_cell_means(theta: float, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    b = t[1:]
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


def stieltjes_increments(weights: np.ndarray,
                         increments: np.ndarray) -> np.ndarray:
    """Sums of the weights, the cell averages of f (:func:`cell_means`),
    times the increments, per replica row (R, K)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = increments @ weights
    out[out > OVERFLOW_GUARD] = np.inf
    return out


# ---------------------------------------------------------------------------
# finiteness criterion and the dichotomy verdict
# ---------------------------------------------------------------------------

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
    """The quadrature integrand t -> phi(f(t)) of the criterion on an array
    of nodes, 0 where f(t) is not positive (nan included): ``f.fn`` and
    ``phi.fn`` run without the checks and conversions of the ``__call__`` of
    ``Integrand`` and of ``BernsteinFunction``."""
    def integrand(t):
        ft = f.fn(t)
        out = np.zeros_like(ft)
        pos = ft > 0
        out[pos] = phi.fn(ft[pos])
        return out

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

