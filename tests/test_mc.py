import math

import numpy as np
import pytest

from subsing.mc import Moments, merge_all, run_mc


def test_se_survives_a_large_offset():
    # E[x^2] - mean^2 cancels to 0 here; merged (count, mean, M2) partials do not
    est = run_mc(lambda r, m: 1e8 + r.standard_normal(m), 100_000, 1)
    assert est.std_error == pytest.approx(1 / math.sqrt(1e5), rel=0.02)


def test_constant_sample_has_zero_se():
    est = run_mc(lambda r, m: np.full(m, 0.1), 1000, 3, max_chunk=7)
    assert est.mean == 0.1
    assert est.std_error == 0.0


def test_merge_does_not_depend_on_chunking():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 3)) * [1.0, 1e3, 1e-3] + [0.0, 1e6, 5.0]
    whole = Moments.of(x)
    np.testing.assert_allclose(whole.m2, ((x - x.mean(axis=0)) ** 2).sum(axis=0),
                               rtol=1e-12)
    for cuts in ([500], [1, 2, 3, 997], list(range(7, 1000, 7))):
        merged = merge_all([Moments.of(c) for c in np.split(x, cuts)])
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.m2, whole.m2, rtol=1e-12)
