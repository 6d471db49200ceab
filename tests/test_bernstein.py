import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsing import bernstein as bf
from subsing import moments as mo
from subsing import subordinator as sub
from subsing.errors import CapabilityError, DomainError, RangeError

CATALOG = [
    bf.stable(0.3), bf.stable(0.5), bf.stable(0.7),
    bf.gamma_exponent(),
    bf.tempered_stable(0.5, 1.0),
    bf.stable_log(0.5, 0.3),
    bf.stable_log_inv(0.6, 0.2),
    bf.ratio(0.5),
    bf.drift_only(2.0),
]

GRID = np.geomspace(1e-8, 1e8, 321)   # 16 decades


def test_eval_closed_forms():
    assert bf.stable(0.5)(4.0) == pytest.approx(2.0)
    assert bf.gamma_exponent()(math.e - 1.0) == pytest.approx(1.0)
    assert bf.ratio(0.5)(3.0) == pytest.approx(1.5)   # 3 / sqrt(4)
    assert bf.tempered_stable(0.5, 1.0)(3.0) == pytest.approx(1.0)
    assert bf.drift_only(2.0)(0.25) == pytest.approx(0.5)
    assert bf.ratio(0.5)(math.inf) == math.inf         # s^(1-alpha), not inf * 0


@pytest.mark.parametrize("s", [1e10, 1e300, math.inf])
def test_tempered_past_the_double_range_of_s_over_lam(s):
    # s / lam overflows; (s + lam)^alpha - lam^alpha is still s^0.3 - 1e-90
    assert bf.tempered_stable(0.3, 1e-300)(s) == pytest.approx(s ** 0.3, rel=1e-15)


def test_eval_domain_error():
    with pytest.raises(DomainError):
        bf.stable(0.5)(0.0)
    with pytest.raises(DomainError):
        bf.gamma_exponent()(np.array([1.0, -2.0]))


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.name)
def test_structural_invariants(phi):
    vals = phi(GRID)
    # increasing with nonincreasing chord slopes (concavity)
    assert np.all(np.diff(vals) > 0)
    chords = np.diff(vals) / np.diff(GRID)
    assert np.all(np.diff(chords) <= 1e-12 * chords[:-1])
    # subadditivity on the doubling grid
    assert np.all(phi(2 * GRID) <= 2 * vals * (1 + 1e-12))
    # vanishing at zero
    assert phi(1e-12) < 1e-3
    # derivative dominated by the secant through the origin
    h = GRID * 1e-6
    deriv = (phi(GRID + h) - vals) / h
    assert np.all(deriv <= vals / GRID * (1 + 1e-6))


@pytest.mark.parametrize("phi,y,expected", [
    (bf.stable(0.5), 2.0, 4.0),
    (bf.gamma_exponent(), 1.0, math.e - 1.0),
])
def test_inverse_closed_forms(phi, y, expected):
    assert bf.inverse(phi, y) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.name)
def test_inverse_round_trip(phi):
    for s in np.geomspace(1e-3, 1e3, 13):
        assert bf.inverse(phi, phi(s)) == pytest.approx(s, rel=1e-9)
        y = phi(s)
        assert phi(bf.inverse(phi, y)) == pytest.approx(y, rel=1e-9)


@pytest.mark.parametrize("phi,y,root", [
    (bf.drift_only(1.0), 1e-300, 1e-300),
    (bf.gamma_exponent(), 600.0, math.expm1(600.0)),
    (bf.drift_only(1.0), 1e300, 1e300),
])
def test_inverse_near_the_ends_of_the_double_range(phi, y, root):
    # the bracket's product lo hi underflows or overflows here; the geometric
    # midpoint must not, and phi(root) meets the 1e-12 tolerance of inverse
    s = bf.inverse(phi, y)
    assert s == pytest.approx(root, rel=1e-9)
    assert phi(s) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.name)
def test_inverse_meets_its_documented_stop_rule(phi):
    # |phi(s) - y| <= 1e-12 y, or s is the midpoint of a bracket of relative
    # width 1e-12 around the root
    for y in [*np.geomspace(1e-6, 1e2, 17), 600.0]:
        s = bf.inverse(phi, y)
        assert (abs(phi(s) - y) <= 1e-12 * y
                or phi(s / (1 + 1e-12)) <= y <= phi(s * (1 + 1e-12))), (y, s)


def test_inverse_out_of_range():
    bounded = bf.custom(lambda s: -np.expm1(-s), "bounded")
    with pytest.raises(RangeError, match="above"):
        bf.inverse(bounded, 2.0)
    # s^(1/2) stays above 1e-200 down to the least bracket end, s ~ 1e-300
    with pytest.raises(RangeError, match="below"):
        bf.inverse(bf.stable(0.5), 1e-200)


def test_parse_phi_round_trip():
    assert bf.parse_phi("stable:0.5").name == "stable:0.5"
    assert bf.parse_phi("ratio:0.3")(1.0) == pytest.approx(1.0 / 2 ** 0.3)
    with pytest.raises(CapabilityError):
        sub.require_sampler(bf.parse_phi("stablelog:0.5,0.2"))
    with pytest.raises(DomainError):
        bf.parse_phi("nosuch:1")


def test_doubling_indices_stable_exact():
    for alpha in (0.3, 0.7):
        d = bf.doubling_indices(bf.stable(alpha))
        for v in (d.global_inf, d.global_sup, d.at_zero, d.at_infinity):
            assert v == pytest.approx(alpha, abs=1e-6)


def test_doubling_indices_ratio_family():
    d = bf.doubling_indices(bf.ratio(0.5))
    assert d.at_zero == pytest.approx(1.0, abs=1e-6)
    assert d.at_infinity == pytest.approx(0.5, abs=1e-6)
    assert d.global_inf == pytest.approx(0.5, abs=1e-6)


def test_doubling_indices_log_family():
    d = bf.doubling_indices(bf.stable_log_inv(0.6, 0.2))
    assert d.at_zero == pytest.approx(0.4, abs=1e-6)


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.name)
def test_doubling_index_ordering(phi):
    d = bf.doubling_indices(phi)
    assert d.global_inf is not None and d.global_sup is not None
    assert -1e-9 <= d.global_inf <= d.at_zero + 1e-9
    assert d.global_inf <= d.global_sup <= 1.0 + 1e-9
    assert d.at_infinity <= d.global_sup + 1e-9


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.name)
def test_log_growth_liminf(phi):
    # gamma, log(1 + s), is the one exponent whose phi(s)/log(s) settles, at
    # 1; every other one grows past every bound.  Either way the liminf is
    # positive, which admits the negative-moment clause (i) past T = 1
    want = 1.0 if phi.kind is bf.Catalog.GAMMA else math.inf
    assert bf.log_growth_liminf(phi) == pytest.approx(want, rel=1e-12)
    assert mo.select_bound_clause(phi, -0.5, [2, 4], theta=0.0) == "i"


def test_non_stabilizing_endpoints_are_undetermined():
    # the doubling ratio of this (non-Bernstein) function oscillates in log s
    # forever; the endpoint limits must be reported as undetermined
    def wobble(s):
        s = np.asarray(s, dtype=float)
        return s * 2.0 ** (0.25 * np.sin(np.log(s)))

    d = bf.doubling_indices(bf.custom(wobble, "wobble"))
    assert d.at_zero is None and d.at_infinity is None
    assert d.global_inf is not None    # grid extremes still reported


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.05, 0.95), s=st.floats(1e-6, 1e6))
def test_stable_doubling_ratio_is_scale_free(alpha, s):
    phi = bf.stable(alpha)
    assert phi(2 * s) / phi(s) == pytest.approx(2 ** alpha, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.1, 0.9), beta=st.floats(0.0, 0.5))
def test_log_family_subadditive(alpha, beta):
    beta = min(beta, 1 - alpha)
    phi = bf.stable_log(alpha, beta)
    s = np.geomspace(1e-6, 1e6, 49)
    assert np.all(phi(2 * s) <= 2 * phi(s) * (1 + 1e-12))
