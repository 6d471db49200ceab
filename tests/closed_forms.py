"""The corollary closed forms of the three singular-integrand families for
a stable(alpha) driver: the tests' reference for the Monte Carlo and for
:func:`subsing.moments.exact_stable_moment`, written independently of it."""

import math
from enum import Enum
from typing import Optional

from subsing.errors import DomainError
from subsing.integrate import LARGEST
from subsing.moments import _require_finite_order, gamma_fn


class CorollaryCase(Enum):
    POWER_HEAD = "power_head"        # integral of t^-theta over (0, T]
    POWER_TAIL = "power_tail"        # integral of t^-theta over [T, inf)
    EXPONENTIAL_HEAD = "exp_head"    # integral of e^(-lam t) over (0, T]


def corollary_case_moment(alpha: float, p: float, T: float, case: CorollaryCase,
                          *, theta: Optional[float] = None,
                          lam: Optional[float] = None) -> float:
    """Closed forms for the three singular-integrand families, including the
    degenerate 0 / 1 / +inf branches.  A direct product that leaves the
    double range, by an overflowing factor or an inf, nan or 0 result, is
    taken in logs."""
    _require_finite_order(p)
    if not 0 < alpha < 1:
        raise DomainError("stable index must lie in (0, 1)")
    if not 0 < T < math.inf:
        raise DomainError("horizon must be positive and finite")
    if case in (CorollaryCase.POWER_HEAD, CorollaryCase.POWER_TAIL):
        if theta is None:
            raise DomainError("power cases need theta")
        head = case is CorollaryCase.POWER_HEAD
        proper = theta < 1.0 / alpha if head else theta > 1.0 / alpha
        if p == 0:
            return 1.0
        if not proper:
            return 0.0 if p < 0 else math.inf
        if p >= alpha:
            return math.inf
        denom = (1.0 - alpha * theta) if head else (alpha * theta - 1.0)
        try:
            value = (gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p)
                     / denom ** (p / alpha) * T ** (p * (1.0 / alpha - theta)))
        except OverflowError:
            value = math.inf
        if 0 < value < math.inf:
            return value
        return _case_in_logs(alpha, p, p * (1.0 / alpha - theta) * math.log(T)
                             - p / alpha * math.log(denom))
    if case is CorollaryCase.EXPONENTIAL_HEAD:
        if lam is None or lam <= 0:
            raise DomainError("exponential case needs lam > 0")
        if p == 0:
            return 1.0
        if p >= alpha:
            return math.inf
        # (1 - e^(-alpha lam T)) / (alpha lam), without the cancellation of
        # 1 - e^(-x) at small x; its limit T where alpha lam T underflows to 0
        x = alpha * lam * T
        scale = -math.expm1(-x) / (alpha * lam) if x > 0 else T
        try:
            value = gamma_fn(1.0 - p / alpha) / gamma_fn(1.0 - p) * scale ** (p / alpha)
        except OverflowError:
            value = math.inf
        if 0 < value < math.inf:
            return value
        return _case_in_logs(alpha, p, p / alpha * math.log(scale))
    raise DomainError(f"unknown case {case!r}")


def _case_in_logs(alpha: float, p: float, log_terms: float) -> float:
    """Gamma(1 - p/alpha) / Gamma(1 - p) exp(log_terms), inf past LARGEST."""
    log_value = math.lgamma(1.0 - p / alpha) - math.lgamma(1.0 - p) + log_terms
    return math.exp(log_value) if log_value <= math.log(LARGEST) else math.inf
