import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from subsing import bernstein as bf
from subsing import subordinator as sub
from subsing.errors import CapabilityError, DomainError
from subsing.rng import as_generator, stream


def test_time_grid_basic():
    g = sub.time_grid(1.0, 0.25)
    assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        sub.time_grid(1.0, 2.0)


def test_power_graded_grid_shape():
    g = sub.power_graded_grid(2.0, 0.5, n_nodes=500)
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.all(np.diff(g) > 0)
    # spacing grows toward the right end
    d = np.diff(g[1:])
    assert d[-1] > d[0]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_stable_paths_monotone_and_certified(alpha):
    inc = sub.grid_increments(bf.stable(alpha), sub.time_grid(1.0, 0.01),
                              as_generator(1))[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0)
    # Laplace certification at the path level: e^{-r S_1} vs e^{-phi(r)}
    rng = stream(9, 0)
    inc = sub.stable_grid_increments(alpha, np.array([0.0, 1.0]), rng, 100_000)
    s1 = inc[:, 0]
    for r in (0.5, 1.0, 2.0):
        vals = np.exp(-r * s1)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(-(r ** alpha))) <= 3 * se


def test_stable_self_similarity_ks():
    # S_t  =d  t^(1/alpha) S_1, two-sample KS with Bonferroni correction
    alpha, n = 0.6, 20_000
    rng = stream(7, 0)
    ts = [0.25, 4.0]
    level = 0.01 / len(ts)
    s1 = sub.stable_grid_increments(alpha, np.array([0.0, 1.0]), rng, n)[:, 0]
    for t in ts:
        st_ = sub.stable_grid_increments(alpha, np.array([0.0, t]), rng, n)[:, 0]
        res = stats.ks_2samp(st_, t ** (1 / alpha) * s1)
        assert res.pvalue > level


def test_stable_independent_increments():
    rng = stream(21, 0)
    inc = sub.stable_grid_increments(0.5, np.array([0.0, 0.5, 1.0]), rng, 50_000)
    # correlate bounded transforms; raw stable increments have no variance
    a = np.exp(-inc[:, 0])
    b = np.exp(-inc[:, 1])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(len(a))


def test_gamma_increments_match_transform():
    rng = stream(3, 0)
    inc = sub.gamma_grid_increments(np.linspace(0, 2, 9), rng, 50_000)
    s2 = inc.sum(axis=1)
    vals = np.exp(-s2)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.25) <= 3 * se     # (1+1)^-2
    # mean of S_2 is 2 (unit mean rate)
    se_m = s2.std() / math.sqrt(len(s2))
    assert abs(s2.mean() - 2.0) <= 3 * se_m


def test_determinism_bit_identical():
    times = sub.time_grid(1.0, 0.01)
    a = sub.grid_increments(bf.stable(0.5), times, as_generator(42))
    b = sub.grid_increments(bf.stable(0.5), times, as_generator(42))
    assert np.array_equal(a, b)
    g1 = sub.cp_jump_batch(bf.parse_phi("gamma", 1e-3), 1.0, as_generator(5), 1)
    g2 = sub.cp_jump_batch(bf.parse_phi("gamma", 1e-3), 1.0, as_generator(5), 1)
    assert g1[0] == g2[0]
    assert all(np.array_equal(a, b) for a, b in zip(g1[1:], g2[1:]))


@pytest.mark.parametrize("phi_id", ["gamma", "tempered:0.5,1", "stable:0.6",
                                    "drift:1"])
@pytest.mark.parametrize("T, eps", [(1.0, 1e-3), (2.0, 1e-2)])
def test_general_path_is_one_sorted_jump_batch(phi_id, T, eps):
    # one replica, as `subsing path` exports it with its times sorted: every
    # jump lies in (0, T] at a distinct time, and the drift takes the mean
    # of the jumps below the cutoff
    phi = bf.parse_phi(phi_id, eps)
    for seed in (0, 7):
        drift, counts, times, sizes = sub.cp_jump_batch(phi, T,
                                                        as_generator(seed), 1)
        assert counts.tolist() == [len(times)] == [len(sizes)]
        assert drift == phi.triplet.drift + phi.triplet.small_jump_mean(eps)
        assert np.all((times > 0) & (times <= T))
        assert np.all(np.diff(np.sort(times)) > 0)
        assert np.all(sizes >= eps)


def test_laplace_certification_all_simulable():
    # every simulable exponent reproduces exp(-T phi(r)) within 3 SE
    times = np.linspace(0.0, 1.0, 17)
    cases = [(bf.stable(0.5), 0), (bf.gamma_exponent(), 1),
             (bf.tempered_stable(0.5, 1.0), 2), (bf.drift_only(0.7), 3)]
    for phi, k in cases:
        rng = stream(41, k)
        inc = sub.grid_increments(dataclasses.replace(phi, eps=1e-4), times, rng,
                                  100_000)
        s1 = inc.sum(axis=1)
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(-r * s1)
            se = vals.std() / math.sqrt(len(vals))
            err = abs(vals.mean() - math.exp(-phi(r)))
            assert err <= max(3 * se, 1e-12), (phi.name, r, err, se)


def test_compound_poisson_structure():
    phi = bf.parse_phi("gamma", 1e-2)
    drift, _, times, sizes = sub.cp_jump_batch(phi, 2.0, as_generator(11), 1)
    assert np.all(sizes >= 1e-2)
    assert drift == pytest.approx(phi.triplet.small_jump_mean(1e-2))
    assert np.all(np.diff(np.sort(times)) > 0)
    record = sub.jump_sampler(phi).record()
    assert record["inv_cdf_knots"] == sub.INV_CDF_KNOTS
    assert 0 < record["inv_cdf_max_gap"] < 1


def test_general_requires_jump_structure():
    with pytest.raises(CapabilityError):
        sub.cp_jump_batch(bf.parse_phi("ratio:0.5", 1e-2), 1.0, as_generator(0), 1)
    for T, eps in ((1.0, -1.0), (math.nan, 1e-2), (math.inf, 1e-2), (0.0, 1e-2)):
        with pytest.raises(DomainError):
            sub.cp_jump_batch(bf.parse_phi("gamma", eps), T, as_generator(0), 1)


def test_general_mean_drift_compensation():
    # mean of S_T for the gamma driver is T regardless of the cutoff
    phi = bf.parse_phi("gamma", 1e-3)
    rng = stream(13, 0)
    _, counts, times, sizes = sub.cp_jump_batch(phi, 2.0, rng, 4000)
    drift = phi.triplet.drift + phi.triplet.small_jump_mean(1e-3)
    path_of = np.repeat(np.arange(4000), counts)
    totals = np.bincount(path_of, weights=sizes, minlength=4000) + drift * 2.0
    se = totals.std() / math.sqrt(len(totals))
    assert abs(totals.mean() - 2.0) <= 3 * se


def test_laplace_error_shrinks_with_cutoff():
    # exponent bias of the cutoff approximation decreases as eps -> 0
    phi = bf.gamma_exponent()
    r, T, n = 4.0, 1.0, 200_000
    exact = math.exp(-T * phi(r))
    errs = []
    for k, eps in enumerate((1e-1, 1e-2, 1e-3)):
        rng = stream(17, k)
        drift, counts, _, sizes = sub.cp_jump_batch(
            dataclasses.replace(phi, eps=eps), T, rng, n)
        path_of = np.repeat(np.arange(n), counts)
        s_T = np.bincount(path_of, weights=sizes, minlength=n) + drift * T
        vals = np.exp(-r * s_T)
        errs.append(abs(vals.mean() - exact))
        se = vals.std() / math.sqrt(n)
    assert errs[0] > errs[1] - 3 * se
    assert errs[0] > errs[2] - 3 * se
    assert errs[1] > errs[2] - 3 * se


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["tempered:0.5,1", "tempered:0.3,2", "gamma"])
def test_jump_lookup_equals_linear_interpolation(name):
    # the guide-table inversion is np.interp on the table, bit for bit
    sampler = sub.jump_sampler(bf.parse_phi(name, 1e-4))
    cdf, knots = sampler._cdf, sampler._knots
    assert np.any(np.diff(cdf) == 0.0)   # the table has flat steps to cover
    edges = np.arange(sub.GUIDE_CELLS) / sub.GUIDE_CELLS
    cases = [stream(3, 0).uniform(0.0, 1.0, 100_000), np.array([0.0]),
             cdf[cdf < 1.0], np.array([np.nextafter(1.0, 0.0)]),
             edges, np.nextafter(edges, 1.0)]
    for u in cases:
        assert _same_bits(sampler.quantile(u), np.interp(u, cdf, knots))
    for size in (0, 1, 3 * sub.LOOKUP_SLICE + 17):
        u = stream(4, size).uniform(0.0, 1.0, size)
        assert _same_bits(sampler.draw(stream(4, size), size),
                          np.interp(u, cdf, knots))


def test_jump_table_reads_only_the_tail_mass():
    # the inverse-CDF table is built from tail_mass alone, so a driver
    # without a density samples exactly as the catalog tempered driver does
    ref = bf.parse_phi("tempered:0.5,1", 1e-4)
    bare = dataclasses.replace(
        ref, triplet=dataclasses.replace(ref.triplet, density=None))
    u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)],
                        stream(5, 0).uniform(0.0, 1.0, 10_000)))
    assert _same_bits(sub._JumpSampler(bare).quantile(u),
                      sub._JumpSampler(ref).quantile(u))


def test_compound_poisson_estimate_pinned():
    # fixed by the streams and the inversion; moves if either changes
    from subsing import integrate as itg
    from subsing import moments as mo
    est = mo.char_functional_mc(bf.parse_phi("tempered:0.5,1"),
                                itg.parse_integrand("exp:1"), 1.0, 4000, seed=11)
    assert (est.mean, est.std_error) == (0.756973022413373, 0.0027170850468114967)
