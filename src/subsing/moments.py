"""Moment formulas and bounds for integrals driven by subordinators.

The stable case has exact formulas: for p < alpha the p-th moment of the
integral of f is Gamma(1-p/alpha)/Gamma(1-p) times the p/alpha power of the
time integral of f^alpha, and it is infinite for p >= alpha.  For a general
exponent only one-sided bounds hold, each valid in a region gated by the
doubling indices; the scan operations here estimate the left sides by Monte
Carlo and report ratios against the analytic right sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import mc
from .bernstein import (BernsteinFunction, Catalog, doubling_indices, inverse,
                        log_growth_liminf, stable, _endpoint_limit)
from .errors import CapabilityError, DomainError, GateViolation, NumericError
from .integrate import (OVERFLOW_GUARD, Integrand, IntegrandKind, Verdict,
                        cell_means, constant, exponential, finiteness_criterion,
                        improper_integral, power_singular,
                        stieltjes_increments)
from .mc import MCEstimate
from .subordinator import grid_increments, power_graded_grid, time_grid

GRID_BIAS_TOL = 1e-5    # |bias| a default grid must certify, see grid_bias
FIRST_CELLS = 32        # the default grids double from here ...
MAX_CELLS = 8000        # ... up to this cap


def gamma_fn(x: float) -> float:
    """Euler Gamma with poles mapped to +inf (all uses approach them from
    the divergent side)."""
    try:
        return math.gamma(x)
    except ValueError:
        return math.inf


# ---------------------------------------------------------------------------
# exact stable formulas
# ---------------------------------------------------------------------------

def exact_stable_moment(alpha: float, p: float, f: Integrand, domain) -> float:
    """p-th moment of the integral of f against a stable subordinator.

    Returns +inf for p >= alpha, and for a divergent scale integral returns
    +inf (p > 0) or 0 (p < 0).  p must be below 1 makes no sense here: any
    p < alpha is admitted, negative included.
    """
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    if f.kind is IntegrandKind.CONSTANT and f.params[0] == 0.0:
        raise DomainError("f vanishes a.e.; the moment formula requires Leb{f>0} > 0")
    # the stable scale: the integral of f^alpha is the criterion for phi = s^alpha
    scale = finiteness_criterion(f, stable(alpha), domain)
    if scale.verdict is Verdict.UNDETERMINED:
        raise NumericError("scale integral undetermined")
    if scale.verdict is Verdict.FINITE and scale.value == 0.0:
        raise DomainError("f vanishes a.e. on the domain")
    if p == 0.0:
        return 1.0
    if scale.verdict is Verdict.INFINITE:
        return math.inf if p > 0 else 0.0
    if p >= alpha:
        return math.inf
    return gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p) * scale.value ** (p / alpha)


class CorollaryCase(Enum):
    POWER_HEAD = "power_head"        # integral of t^-theta over (0, T]
    POWER_TAIL = "power_tail"        # integral of t^-theta over [T, inf)
    EXPONENTIAL_HEAD = "exp_head"    # integral of e^(-lam t) over (0, T]


def corollary_case_moment(alpha: float, p: float, T: float, case: CorollaryCase,
                          *, theta: Optional[float] = None,
                          lam: Optional[float] = None) -> float:
    """Closed forms for the three singular-integrand families, including the
    degenerate 0 / 1 / +inf branches."""
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    if T <= 0:
        raise DomainError("horizon must be positive")
    if case in (CorollaryCase.POWER_HEAD, CorollaryCase.POWER_TAIL):
        if theta is None:
            raise DomainError("power cases need theta")
        head = case is CorollaryCase.POWER_HEAD
        proper = theta < 1.0 / alpha if head else theta > 1.0 / alpha
        if not proper:
            if p < 0:
                return 0.0
            if p == 0:
                return 1.0
            return math.inf
        if p == 0:
            return 1.0
        if p >= alpha:
            return math.inf
        denom = (1.0 - alpha * theta) if head else (alpha * theta - 1.0)
        return (gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p)
                / denom ** (p / alpha) * T ** (p * (1.0 / alpha - theta)))
    if case is CorollaryCase.EXPONENTIAL_HEAD:
        if lam is None or lam <= 0:
            raise DomainError("exponential case needs lam > 0")
        if p == 0:
            return 1.0
        if p >= alpha:
            return math.inf
        scale = (1.0 - math.exp(-alpha * lam * T)) / (alpha * lam)
        return gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p) * scale ** (p / alpha)
    raise DomainError(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# characteristic functional
# ---------------------------------------------------------------------------

def char_functional_exact(phi: BernsteinFunction, f: Integrand, domain) -> float:
    """exp(-integral of phi(f(t))); 0 when the criterion integral diverges."""
    res = finiteness_criterion(f, phi, domain)
    if res.verdict is Verdict.INFINITE:
        return 0.0
    if res.verdict is Verdict.UNDETERMINED:
        raise NumericError("finiteness criterion undetermined")
    return math.exp(-res.value)


def _grid_exponent(phi: BernsteinFunction, f: Integrand, times: np.ndarray) -> float:
    """sum_k h_k phi(w_k) over the cell averages w_k of f."""
    w = cell_means(f, times)
    vals = np.zeros_like(w)
    pos = w > 0
    vals[pos] = phi.fn(w[pos])
    return float(np.dot(np.diff(times), vals))


def _exact_exponent(phi: BernsteinFunction, f: Integrand, times: np.ndarray) -> float:
    """Integral of phi(f) over the grid's span; +inf if divergent, nan if
    undetermined."""
    res = finiteness_criterion(f, phi, (float(times[0]), float(times[-1])))
    if res.verdict is Verdict.FINITE:
        return res.value
    return math.inf if res.verdict is Verdict.INFINITE else math.nan


def grid_bias(phi: BernsteinFunction, f: Integrand, times: np.ndarray,
              exact: Optional[float] = None) -> float:
    """Bias exp(-sum h_k phi(w_k)) - exp(-int phi(f)) of the grid Laplace
    functional, with w_k the cell averages of f.

    The increments of stable, gamma and drift-only subordinators are exact
    in law, so E exp(-sum_k w_k dS_k) = exp(-sum_k h_k phi(w_k)) and this is
    the exact discretization bias of the Monte Carlo target; nan when the
    criterion integral is undetermined.  ``exact`` is int phi(f) if known.
    """
    times = np.asarray(times, dtype=float)
    if exact is None:
        exact = _exact_exponent(phi, f, times)
    return math.exp(-_grid_exponent(phi, f, times)) - math.exp(-exact)


def _default_times(f: Integrand, T: float, dt: Optional[float],
                   phi: BernsteinFunction) -> np.ndarray:
    """Grid on [0, T]: from ``dt`` if given, else the coarsest of 32, 64, ...
    cells (at most MAX_CELLS) whose :func:`grid_bias` is within GRID_BIAS_TOL."""
    if f.kind is IntegrandKind.CONSTANT:
        return np.array([0.0, T])
    if f.kind is IntegrandKind.POWER_SINGULAR and f.params[0] > 0:
        # grading exponent: decay rate of phi(f(t)) near zero, stable worst case
        theta = f.params[0]
        q = phi.params[0] * theta if phi.kind is Catalog.STABLE \
            else theta / (1.0 + theta)
        if theta >= 1 and q < 1:
            # a convergent integral whose first cell takes the inward weight
            # t_1^-theta (cell_means): grade no finer than keeps that weight
            # below OVERFLOW_GUARD at MAX_CELLS cells on [0, 1]
            q = min(q, 1.0 - 2.0 * theta * math.log(MAX_CELLS)
                    / math.log(OVERFLOW_GUARD))
        q = min(max(q, 0.0), 0.95)

        def grid(n):
            return power_graded_grid(T, q, n_nodes=n)
        fewest = 16
    else:
        def grid(n):
            return time_grid(T, T / n)
        fewest = 1
    if dt is not None:
        return grid(max(fewest, int(round(T / dt))))
    exact = _exact_exponent(phi, f, np.array([0.0, T]))
    n = FIRST_CELLS
    times = grid(n)
    # written so that a nan bias (undetermined criterion) never certifies
    while n < MAX_CELLS and not abs(grid_bias(phi, f, times, exact)) <= GRID_BIAS_TOL:
        n = min(2 * n, MAX_CELLS)
        times = grid(n)
    return times


def _integral_sampler(phi, f, times, eps):
    k = len(times) - 1
    chunk = max(8, min(4096, 2_000_000 // max(k, 1)))

    def sampler(rng, m):
        inc = grid_increments(phi, times, rng, m, eps=eps)
        return stieltjes_increments(f, times, inc)

    return sampler, chunk


def _integral_mc(phi, f, times, N, seed, transform, method, eps) -> MCEstimate:
    """Monte Carlo mean of ``transform`` of the integral of f over ``times``."""
    if not phi.simulable:
        raise CapabilityError(f"{phi.name}: not simulable")
    sampler, chunk = _integral_sampler(phi, f, np.asarray(times, dtype=float), eps)
    return mc.run_mc(lambda rng, m: transform(sampler(rng, m)), N, seed,
                     method=method, max_chunk=chunk)


def char_functional_mc(phi: BernsteinFunction, f: Integrand, T: float, N: int,
                       seed: int, *, dt: Optional[float] = None,
                       eps: float = 1e-4) -> MCEstimate:
    """Monte Carlo mean of exp(-integral); divergent samples contribute 0."""
    return _integral_mc(phi, f, _default_times(f, T, dt, phi), N, seed,
                        lambda v: np.exp(-v), "plain", eps)


# ---------------------------------------------------------------------------
# Monte Carlo moments
# ---------------------------------------------------------------------------

def _power_transform(values: np.ndarray, p: float) -> np.ndarray:
    if p == 0.0:
        return np.ones_like(values)
    with np.errstate(all="ignore"):
        out = values ** p
    # inf integral: contributes inf for p > 0, 0 for p < 0
    bad = ~np.isfinite(values)
    out[bad] = math.inf if p > 0 else 0.0
    return out


def _auto_method(phi: BernsteinFunction, p: float) -> str:
    # the second moment of X^p diverges once 2p >= alpha
    if phi.kind is Catalog.STABLE and p >= phi.params[0] / 2:
        return "median_of_means"
    return "plain"


def mc_integral_moment(phi: BernsteinFunction, p: float, f: Integrand,
                       times: np.ndarray, N: int, seed: int, *,
                       method: str = "auto", eps: float = 1e-4) -> MCEstimate:
    """p-th moment of the integral of f over an explicit grid."""
    if method == "auto":
        method = _auto_method(phi, p)
    return _integral_mc(phi, f, times, N, seed,
                        lambda v: _power_transform(v, p), method, eps)


def mc_moment(phi: BernsteinFunction, p: float, f: Integrand, T: float, N: int,
              seed: int, *, method: str = "auto", dt: Optional[float] = None,
              eps: float = 1e-4) -> MCEstimate:
    """p-th moment of the integral of f on (0, T]."""
    return mc_integral_moment(phi, p, f, _default_times(f, T, dt, phi), N, seed,
                              method=method, eps=eps)


# ---------------------------------------------------------------------------
# general-exponent bound scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Ratios of Monte Carlo moments against an analytic right side (no
    constant): a finite, tame max ratio is the empirical certificate."""

    T_grid: tuple
    estimates: tuple          # MCEstimate per horizon
    bound_rhs: tuple          # right side per horizon, constant omitted
    clause: str

    @property
    def ratios(self) -> tuple:
        return tuple(e.mean / r for e, r in zip(self.estimates, self.bound_rhs))

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


def _require(cond: bool, condition: str, detail: str):
    if not cond:
        raise GateViolation(condition, detail)


def select_bound_clause(phi: BernsteinFunction, p: float, T_grid: Sequence[float],
                        *, theta: Optional[float] = None,
                        lam: Optional[float] = None) -> str:
    """Pick and check the admissibility clause for the requested scan.

    Raises GateViolation naming the violated condition.  The doubling indices
    (and the liminf variants needed by the negative-moment clauses) are grid
    estimates from :func:`subsing.bernstein.doubling_indices`.
    """
    idx = doubling_indices(phi)
    t_lo, t_hi = min(T_grid), max(T_grid)
    if lam is not None:
        if p > 0:
            raise GateViolation(
                "p <= 0 for the exponential-integrand estimate",
                "positive p is covered by the integrability equivalence instead")
        if p == 0:
            return "trivial"
        liminf_inf = _endpoint_limit(phi, "inf", -1, atol=1e-6)
        _require(liminf_inf is not None and liminf_inf > 0,
                 "liminf_{s->inf} phi(2s)/phi(s) > 1",
                 f"log2 liminf at infinity = {liminf_inf}")
        return "vi"
    if theta is None:
        raise DomainError("scan needs theta or lam")
    if p == 0:
        return "trivial"
    if p < 0:
        _require(theta >= 0, "theta >= 0", f"theta = {theta}")
        if t_hi > 1:
            growth = log_growth_liminf(phi)
            _require(growth is not None and growth > 0,
                     "liminf_{s->inf} phi(s)/log(s) > 0",
                     f"estimated liminf = {growth}")
            _require(idx.at_zero is not None and idx.at_zero > 0,
                     "liminf_{s->0} phi(2s)/phi(s) > 1",
                     f"log2 liminf at zero = {idx.at_zero}")
        if t_lo < 1:
            liminf_inf = _endpoint_limit(phi, "inf", -1, atol=1e-6)
            _require(liminf_inf is not None and liminf_inf > 0,
                     "liminf_{s->inf} phi(2s)/phi(s) > 1",
                     f"log2 liminf at infinity = {liminf_inf}")
        return "i" if t_lo >= 1 else ("ii" if t_hi <= 1 else "i+ii")
    if theta == 0.0:
        if t_lo >= 1:
            _require(idx.at_zero is not None and p < idx.at_zero,
                     "0 <= p < log2(liminf_{s->0} phi(2s)/phi(s))",
                     f"p = {p}, log2 liminf at zero = {idx.at_zero}")
        else:
            _require(idx.global_inf is not None and p < idx.global_inf,
                     "0 <= p < log2(inf_{s>0} phi(2s)/phi(s))",
                     f"p = {p}, log2 inf = {idx.global_inf}")
        return "iii"
    clauses = []
    if t_hi > 1:
        _require(idx.at_zero is not None and p < idx.at_zero,
                 "0 <= p < log2(liminf_{s->0} phi(2s)/phi(s))",
                 f"p = {p}, log2 liminf at zero = {idx.at_zero}")
        _require(idx.global_sup is not None and theta * idx.global_sup < 1,
                 "0 <= theta < 1/log2(sup_{s>0} phi(2s)/phi(s))",
                 f"theta = {theta}, log2 sup = {idx.global_sup}")
        clauses.append("iv")
    if t_lo <= 1:
        _require(idx.global_inf is not None and p < idx.global_inf,
                 "0 <= p < log2(inf_{s>0} phi(2s)/phi(s))",
                 f"p = {p}, log2 inf = {idx.global_inf}")
        _require(idx.at_infinity is not None and theta * idx.at_infinity < 1,
                 "0 < theta < 1/log2(limsup_{s->inf} phi(2s)/phi(s))",
                 f"theta = {theta}, log2 limsup at infinity = {idx.at_infinity}")
        clauses.append("v")
    return "+".join(clauses)


def bound_rhs(phi: BernsteinFunction, p: float, T: float, *,
              theta: Optional[float] = None, lam: Optional[float] = None) -> float:
    """Right side of the applicable estimate, without its constant."""
    if lam is not None:
        return inverse(phi, 1.0 / min(T, 1.0)) ** (-p)
    th = theta or 0.0
    return T ** (-p * th) * inverse(phi, 1.0 / T) ** (-p)


def bound_scan(phi: BernsteinFunction, p: float, T_grid: Sequence[float], N: int,
               seed: int, *, theta: Optional[float] = None,
               lam: Optional[float] = None, dt: Optional[float] = None,
               method: str = "auto", eps: float = 1e-4) -> BoundReport:
    """Monte Carlo left sides against analytic right sides over a horizon grid."""
    clause = select_bound_clause(phi, p, T_grid, theta=theta, lam=lam)
    ests, rhss = [], []
    for i, T in enumerate(T_grid):
        if lam is not None:
            f = exponential(lam)
        elif theta == 0.0:
            f = constant(1.0)
        else:
            f = power_singular(theta)
        est = mc_moment(phi, p, f, float(T), N, seed + 1000 * i,
                        method=method, dt=dt, eps=eps)
        ests.append(est)
        rhss.append(bound_rhs(phi, p, float(T), theta=theta, lam=lam))
    return BoundReport(tuple(float(T) for T in T_grid), tuple(ests),
                       tuple(rhss), clause)


# ---------------------------------------------------------------------------
# integrability equivalence for the exponential integrand
# ---------------------------------------------------------------------------

class Equivalence(Enum):
    BOTH_FINITE = "both finite"
    BOTH_INFINITE = "both infinite"


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: Equivalence
    criterion_value: Optional[float]


def exp_moment_equivalence(phi: BernsteinFunction, p: float,
                           lam: float) -> EquivalenceResult:
    """Integrability of phi(s)/s^(p+1) near 0 decides finiteness of the p-th
    moment of the full exponential integral; both sides share the verdict."""
    if not 0 < p < 1:
        raise DomainError("equivalence holds for p in (0, 1)")
    if lam <= 0:
        raise DomainError("decay rate must be positive")

    def g(s):
        arr = np.asarray(s, dtype=float)
        return phi.fn(arr) / arr ** (p + 1.0)

    res = improper_integral(g, 0.0, 1.0, singular_lo=True)
    if res.verdict is Verdict.UNDETERMINED:
        raise NumericError("criterion integral undetermined")
    if res.verdict is Verdict.INFINITE:
        return EquivalenceResult(Equivalence.BOTH_INFINITE, None)
    return EquivalenceResult(Equivalence.BOTH_FINITE, res.value)
