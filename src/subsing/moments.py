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
from typing import Optional, Sequence

import numpy as np

from . import mc
from .bernstein import (BernsteinFunction, Catalog, DoublingIndices,
                        doubling_indices, inverse, log_growth_liminf)
from .errors import CapabilityError, DomainError, GateViolation, NumericError
from .integrate import (LARGEST, OVERFLOW_GUARD, Finiteness, Integrand,
                        IntegrandKind, Verdict, cell_means, constant,
                        exponential, finiteness_criterion, improper_integral,
                        power_singular, stieltjes_increments)
from .mc import MCEstimate
from .subordinator import (cell_count, grid_sampler, power_graded_grid,
                           require_sampler, time_grid)

GRID_BIAS_TOL = 1e-5    # |bias| a default grid must certify, see grid_bias
FIRST_CELLS = 32        # the default grid search doubles from here ...
MAX_CELLS = 8000        # ... up to this cap, then bisects


def gamma_fn(x: float) -> float:
    """Euler Gamma with poles mapped to +inf (all uses approach them from
    the divergent side)."""
    try:
        return math.gamma(x)
    except ValueError:
        return math.inf


def _require_finite_order(p: float):
    """Refuse a NaN or infinite moment order, which no formula here reads."""
    if not math.isfinite(p):
        raise DomainError(f"moment order p = {p} must be finite")


# ---------------------------------------------------------------------------
# exact stable formulas
# ---------------------------------------------------------------------------

def exact_stable_moment(phi: BernsteinFunction, p: float, f: Integrand,
                        domain) -> float:
    """p-th moment of the integral of f against the stable subordinator of
    exponent phi = s^alpha; any other exponent raises CapabilityError.

    Returns +inf for p >= alpha, and for a divergent scale integral returns
    +inf (p > 0) or 0 (p < 0).  p must be below 1 makes no sense here: any
    p < alpha is admitted, negative included.
    """
    _require_finite_order(p)
    if phi.kind is not Catalog.STABLE:
        raise CapabilityError(f"{phi.name}: no exact moment formula; "
                              "only a stable exponent has one")
    alpha = phi.params[0]
    # the stable scale: the integral of f^alpha is the criterion for phi
    scale = finiteness_criterion(f, phi, domain)
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
    try:
        return gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p) * scale.value ** (p / alpha)
    except OverflowError:   # a factor past the double range: take it in logs
        log_value = (math.lgamma(1.0 - p / alpha) - math.lgamma(1.0 - p)
                     + p / alpha * math.log(scale.value))
        return math.exp(log_value) if log_value <= math.log(LARGEST) else math.inf


# ---------------------------------------------------------------------------
# characteristic functional
# ---------------------------------------------------------------------------

def char_functional_exact(phi: BernsteinFunction, f: Integrand, domain) -> float:
    """exp(-integral of phi(f(t))); 0 when the criterion integral diverges."""
    exponent = _exponent(finiteness_criterion(f, phi, domain))
    if math.isnan(exponent):
        raise NumericError("finiteness criterion undetermined")
    return math.exp(-exponent)


def _grid_exponent(phi: BernsteinFunction, f: Integrand, times: np.ndarray) -> float:
    """sum_k h_k phi(w_k) over the cell averages w_k of f."""
    w = cell_means(f, times)
    vals = np.zeros_like(w)
    pos = w > 0
    vals[pos] = phi.fn(w[pos])
    return float(np.dot(np.diff(times), vals))


def _exponent(res) -> float:
    """Integral of phi(f) from its criterion: +inf if divergent, nan if unknown."""
    if res.verdict is Verdict.FINITE:
        return res.value
    return math.inf if res.verdict is Verdict.INFINITE else math.nan


def grid_bias(phi: BernsteinFunction, f: Integrand, times: np.ndarray,
              exact: Optional[float] = None) -> float:
    """Bias exp(-sum h_k phi(w_k)) - exp(-int phi(f)) of the grid Laplace
    functional, with w_k the cell averages of f.

    Grid increments are exact in law for every simulable exponent, so
    E exp(-sum_k w_k dS_k) = exp(-sum_k h_k phi(w_k)) and this is the exact
    discretization bias of the Monte Carlo target; nan when the criterion
    integral is undetermined.  ``exact`` is int phi(f) if known.
    """
    grid = _grid_exponent(phi, f, times)     # checks the grid first
    if exact is None:
        exact = _exponent(finiteness_criterion(f, phi, (float(times[0]),
                                                        float(times[-1]))))
    return math.exp(-grid) - math.exp(-exact)


def integral_grid(phi: BernsteinFunction, f: Integrand, T: float,
                  dt: Optional[float]):
    """The finiteness criterion of f on (0, T], the grid on [0, T] of the
    integral's Monte Carlo run, its :func:`grid_bias` and the bias
    evaluations that chose it; (criterion, None, None, 0) for an a.s.
    infinite integral.  A driver without an exact grid sampler is refused
    before the grid search.

    With ``dt`` the grid has T / dt cells, and dt must divide T as in
    :func:`time_grid`.  Without it the cell count doubles from FIRST_CELLS
    to the first count whose bias is within GRID_BIAS_TOL, then a bisection
    returns a count n that certifies while n - 1 does not, or is the floor
    (16 cells for ``pow``, 1 otherwise); n is at most the first certified
    doubling.  Grids of n and n - 1 cells are not nested, so n is the fewest
    cells that certify only where no smaller count does.  A grid that never
    certifies has MAX_CELLS cells.  A constant f takes the one cell [0, T].
    A grid that no search chose took 0 evaluations to choose."""
    if not 0 < T < math.inf:
        raise DomainError("T and dt must be positive and finite")
    res = finiteness_criterion(f, phi, (0.0, float(T)))
    if res.verdict is Verdict.INFINITE:
        return res, None, None, 0
    require_sampler(phi)
    exact = _exponent(res)
    cells = None if dt is None else cell_count(T, dt)
    if f.kind is IntegrandKind.CONSTANT:
        times = np.array([0.0, T])
        return res, times, grid_bias(phi, f, times, exact), 0
    if f.singular_at_zero:
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
    if cells is not None:
        times = grid(max(fewest, cells))
        return res, times, grid_bias(phi, f, times, exact), 0
    evaluations = 0

    def tried(n):
        nonlocal evaluations
        evaluations += 1
        times = grid(n)
        return times, grid_bias(phi, f, times, exact)

    def certifies(bias):
        # written so that a nan bias (undetermined criterion) never certifies
        return abs(bias) <= GRID_BIAS_TOL

    lo, n = fewest - 1, FIRST_CELLS
    times, bias = tried(n)
    while not certifies(bias) and n < MAX_CELLS:
        lo, n = n, min(2 * n, MAX_CELLS)
        times, bias = tried(n)
    # lo cells fail (or lie below the floor) and n cells certify; a grid
    # that never certified is not bisected
    while certifies(bias) and n - lo > 1:
        mid = (lo + n) // 2
        mid_times, mid_bias = tried(mid)
        if certifies(mid_bias):
            n, times, bias = mid, mid_times, mid_bias
        else:
            lo = mid
    return res, times, bias, evaluations


def _integral_mc(phi, f, times, N, seed, transform, method) -> list:
    """Monte Carlo means of the columns of ``transform`` of the integral of f
    over ``times``, one :class:`MCEstimate` per column; ``times`` None marks
    an a.s. infinite integral, whose paths are all +inf and draw no variate.
    The cell averages of f and the grid sampler are made once per run, and
    a grid on which one average is past the range of doubles is refused
    before anything is drawn."""
    if times is None:
        def sampler(rng, m):
            return transform(np.full(m, math.inf))

        return mc.run_mc(sampler, N, seed, method=method)
    weights = cell_means(f, times)
    if not np.all(np.isfinite(weights)):
        # an infinite weight times an increment that underflowed to 0 is nan
        raise NumericError("a cell average of f on this grid is past the range "
                           "of doubles: take a larger T or dt")

    draw = grid_sampler(phi, times)

    def sampler(rng, m):
        return transform(stieltjes_increments(weights, draw(rng, m)))

    return mc.run_mc(sampler, N, seed, method=method, width=weights.size)


def char_functional_mc(phi: BernsteinFunction, f: Integrand, T: float, N: int,
                       seed: int, *, dt: Optional[float] = None) -> MCEstimate:
    """Monte Carlo mean of exp(-integral); divergent samples contribute 0."""
    return _integral_mc(phi, f, integral_grid(phi, f, T, dt)[1], N, seed,
                        lambda v: np.exp(-v), "plain")[0]


def laplace_mc(phi: BernsteinFunction, r: Sequence[float], times: np.ndarray,
               N: int, seed: int) -> list:
    """Monte Carlo of E exp(-r S_T) over ``times`` per r, each path drawn once."""
    return _integral_mc(phi, constant(1.0), times, N, seed,
                        lambda v: np.exp(-np.multiply.outer(v, r)), "plain")


def integral_summary(phi: BernsteinFunction, f: Integrand, times: np.ndarray,
                     N: int, seed: int) -> tuple:
    """Row (n, finite fraction, mean, SE, median) of the integral of f over
    ``times`` from one set of draws; ``times`` None marks an almost surely
    infinite integral, as :func:`integral_grid` returns it."""
    # every value drawn is kept: its median and finite fraction ignore block order
    kept = []
    est = _integral_mc(phi, f, times, N, seed, lambda v: kept.append(v) or v,
                       "plain")[0]
    vals = np.concatenate(kept)
    kept.clear()    # one copy of the values, which the median then reorders
    return (est.n_samples, float(np.isfinite(vals).mean()), est.mean,
            est.std_error, float(np.median(vals, overwrite_input=True)))


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
                       method: str = "auto") -> MCEstimate:
    """p-th moment of the integral of f over an explicit grid."""
    _require_finite_order(p)
    if method == "auto":
        method = _auto_method(phi, p)
    return _integral_mc(phi, f, times, N, seed,
                        lambda v: _power_transform(v, p), method)[0]


def mc_moment(phi: BernsteinFunction, p: float, f: Integrand, T: float, N: int,
              seed: int, *, method: str = "auto",
              dt: Optional[float] = None) -> MCEstimate:
    """p-th moment of the integral of f on (0, T], over the grid of
    :func:`integral_grid`."""
    return mc_integral_moment(phi, p, f, integral_grid(phi, f, T, dt)[1], N,
                              seed, method=method)


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
    levels: tuple = ()        # the multilevel run behind the estimates, if any

    @property
    def ratios(self) -> tuple:
        return tuple(e.mean / r for e, r in zip(self.estimates, self.bound_rhs))

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


def _require(cond: bool, condition: str, detail: str):
    if not cond:
        raise GateViolation(condition, detail)


def small_time_gate(idx: DoublingIndices, p: float, theta: float, *,
                    order: str = "p", index: str = "theta"):
    """Clauses v and iii below T = 1: p < global_inf and, if theta > 0,
    theta at_infinity < 1; ``order`` and ``index`` name p and theta."""
    _require(idx.global_inf is not None and p < idx.global_inf,
             f"0 <= {order} < log2(inf_{{s>0}} phi(2s)/phi(s))",
             f"{order} = {p}, log2 inf = {idx.global_inf}")
    if theta > 0:
        _require(idx.at_infinity is not None and theta * idx.at_infinity < 1,
                 f"0 < {index} < 1/log2(limsup_{{s->inf}} phi(2s)/phi(s))",
                 f"{index} = {theta}, log2 limsup at infinity = {idx.at_infinity}")


def stationary_gate(idx: DoublingIndices, p: float, theta: float, *,
                    order: str = "p", index: str = "theta"):
    """Clauses iv and iii from T = 1 on: p < at_zero and, if theta > 0,
    theta global_sup < 1; ``order`` and ``index`` name p and theta."""
    _require(idx.at_zero is not None and p < idx.at_zero,
             f"0 <= {order} < log2(liminf_{{s->0}} phi(2s)/phi(s))",
             f"{order} = {p}, log2 liminf at zero = {idx.at_zero}")
    if theta > 0:
        _require(idx.global_sup is not None and theta * idx.global_sup < 1,
                 f"0 <= {index} < 1/log2(sup_{{s>0}} phi(2s)/phi(s))",
                 f"{index} = {theta}, log2 sup = {idx.global_sup}")


def select_bound_clause(phi: BernsteinFunction, p: float, T_grid: Sequence[float],
                        *, theta: Optional[float] = None,
                        lam: Optional[float] = None) -> str:
    """Pick and check the admissibility clause for the requested scan.

    Raises GateViolation naming the violated condition.  The doubling indices
    (and the liminf variants needed by the negative-moment clauses) are grid
    estimates from :func:`subsing.bernstein.doubling_indices`.
    """
    _require_finite_order(p)
    idx = doubling_indices(phi)
    t_lo, t_hi = min(T_grid), max(T_grid)
    growth_at_infinity = ((idx.liminf_at_infinity or 0) > 0,
                          "liminf_{s->inf} phi(2s)/phi(s) > 1",
                          f"log2 liminf at infinity = {idx.liminf_at_infinity}")
    if lam is not None:
        if p > 0:
            raise GateViolation(
                "p <= 0 for the exponential-integrand estimate",
                "positive p is covered by the integrability equivalence instead")
        if p == 0:
            return "trivial"
        _require(*growth_at_infinity)
        return "vi"
    if theta is None:
        raise DomainError("scan needs theta or lam")
    if p == 0:
        return "trivial"
    _require(theta >= 0, "theta >= 0", f"theta = {theta}")
    if p < 0:
        if t_hi > 1:
            growth = log_growth_liminf(phi)
            _require(growth is not None and growth > 0,
                     "liminf_{s->inf} phi(s)/log(s) > 0",
                     f"estimated liminf = {growth}")
            _require(idx.at_zero is not None and idx.at_zero > 0,
                     "liminf_{s->0} phi(2s)/phi(s) > 1",
                     f"log2 liminf at zero = {idx.at_zero}")
        if t_lo < 1:
            _require(*growth_at_infinity)
        return "i" if t_lo >= 1 else ("ii" if t_hi <= 1 else "i+ii")
    if theta == 0.0:
        (stationary_gate if t_lo >= 1 else small_time_gate)(idx, p, theta)
        return "iii"
    clauses = []
    if t_hi > 1:
        stationary_gate(idx, p, theta)
        clauses.append("iv")
    if t_lo <= 1:
        small_time_gate(idx, p, theta)
        clauses.append("v")
    return "+".join(clauses)


def bound_rhs(phi: BernsteinFunction, p: float, T: float, *,
              theta: Optional[float] = None, lam: Optional[float] = None) -> float:
    """Right side of the applicable estimate, without its constant."""
    if lam is not None:
        return inverse(phi, 1.0 / min(T, 1.0)) ** (-p)
    th = theta or 0.0
    return T ** (-p * th) * inverse(phi, 1.0 / T) ** (-p)


def _horizons(ts: Sequence[float]) -> list:
    """The horizons of a scan in ascending order; at least one, all positive
    and finite."""
    hs = sorted(float(t) for t in ts)
    if not hs or not all(0 < t < math.inf for t in hs):
        raise DomainError("need one or more positive, finite horizons")
    return hs


def bound_scan(phi: BernsteinFunction, p: float, T_grid: Sequence[float], N: int,
               seed: int, *, theta: Optional[float] = None,
               lam: Optional[float] = None, dt: Optional[float] = None,
               method: str = "auto") -> BoundReport:
    """Monte Carlo left sides against analytic right sides over the horizons
    of ``T_grid`` in ascending order."""
    T_grid = _horizons(T_grid)
    clause = select_bound_clause(phi, p, T_grid, theta=theta, lam=lam)
    ests, rhss = [], []
    for i, T in enumerate(T_grid):
        if lam is not None:
            f = exponential(lam)
        elif theta == 0.0:
            f = constant(1.0)
        else:
            f = power_singular(theta)
        est = mc_moment(phi, p, f, T, N, seed + 1000 * i, method=method, dt=dt)
        ests.append(est)
        rhss.append(bound_rhs(phi, p, T, theta=theta, lam=lam))
    return BoundReport(tuple(T_grid), tuple(ests), tuple(rhss), clause)


# ---------------------------------------------------------------------------
# integrability equivalence for the exponential integrand
# ---------------------------------------------------------------------------

def exp_moment_equivalence(phi: BernsteinFunction, p: float,
                           lam: float) -> Finiteness:
    """Integrability of phi(s)/s^(p+1) near 0 decides finiteness of the p-th
    moment of the full exponential integral: both sides share the verdict
    of this criterion integral, which is returned with its value and the
    pieces and evaluations its quadrature took."""
    if not 0 < p < 1:
        raise DomainError("equivalence holds for p in (0, 1)")
    if not 0 < lam < math.inf:
        raise DomainError("decay rate must be positive and finite")

    def g(s):
        arr = np.asarray(s, dtype=float)
        return phi.fn(arr) / arr ** (p + 1.0)

    res = improper_integral(g, 0.0, 1.0, singular_lo=True)
    if res.verdict is Verdict.UNDETERMINED:
        raise NumericError("criterion integral undetermined")
    return res
