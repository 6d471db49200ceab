import inspect
import math
import os
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

import subsing
from subsing import mc
from subsing.errors import DomainError, NumericError
from subsing.mc import Moments, estimate_from_blocks, merge_all, run_mc
from subsing.rng import stream


def test_se_survives_a_large_offset():
    # E[x^2] - mean^2 cancels to 0 here; merged (count, mean, M2) partials do not
    (est,) = run_mc(lambda r, m: 1e8 + r.standard_normal(m), 100_000, 1)
    assert est.std_error == pytest.approx(1 / math.sqrt(1e5), rel=0.02)


def test_constant_sample_has_zero_se():
    # samples of CHUNK_DOUBLES doubles: chunks of the least size, 8
    (est,) = run_mc(lambda r, m: np.full(m, 0.1), 1000, 3,
                    width=mc.CHUNK_DOUBLES)
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


def test_no_samples_is_a_domain_error():
    with pytest.raises(DomainError):
        run_mc(lambda r, m: r.standard_normal(m), 0, 1)


@pytest.mark.parametrize("method", ["plain", "median_of_means"])
def test_one_estimate_per_column(method):
    # each column of a (m, d) sample gets the estimate it gets on its own, up
    # to the summation order of the partials
    x = np.random.default_rng(2).pareto(1.5, (3200, 3)) * [1.0, 1e3, 1e-3]
    blocks = [Moments.of(b) for b in np.split(x, 32)]
    ests = estimate_from_blocks(blocks, method)
    assert len(ests) == 3
    for j, est in enumerate(ests):
        alone = estimate_from_blocks([Moments.of(b[:, j]) for b in np.split(x, 32)],
                                     method)
        assert (est.n_samples, est.heavy_tail_flag, est.method) == (
            alone[0].n_samples, alone[0].heavy_tail_flag, alone[0].method)
        assert est.mean == pytest.approx(alone[0].mean, rel=1e-12)
        assert est.std_error == pytest.approx(alone[0].std_error, rel=1e-12)


def _estimates_by_three_merge_alls(blocks, method):
    # reference: merge_all over all blocks for the total, then each
    # estimator's mean and SE written out column by column
    b, n = len(blocks), sum(blk.count for blk in blocks)
    if method == "median_of_means":
        means = np.array([np.ravel(blk.mean) for blk in blocks])
        finite = np.all(np.isfinite(means), axis=0)
        with np.errstate(invalid="ignore"):
            se = math.sqrt(math.pi / (2 * b)) * np.std(means, axis=0, ddof=1)
        return [(n, mu, s if ok else math.inf)
                for mu, s, ok in zip(np.median(means, axis=0), se, finite)]
    acc = merge_all(blocks)
    return [(n, mu, math.sqrt(m2) / n if n > 1 else math.nan)
            if math.isfinite(mu) else (n, mu, math.inf)
            for mu, m2 in zip(np.ravel(acc.mean), np.ravel(acc.m2))]


@pytest.mark.parametrize("method", ["plain", "median_of_means"])
def test_one_fold_equals_three_merge_alls(method):
    # columns: heavy-tailed, light-tailed, of growing spread, constant, and
    # one that turns inf in block 30, whose SE is then inf under either
    # method; blocks of unequal sizes
    rng = np.random.default_rng(9)
    x = np.column_stack([rng.pareto(1.2, 4000), rng.standard_normal(4000),
                         rng.standard_normal(4000) * np.linspace(1, 3, 4000),
                         np.full(4000, 0.1), rng.random(4000)])
    sizes = rng.integers(1, 80, 40)
    x[sizes[:30].sum(), 4] = math.inf
    parts = [Moments.of(x[a:a + m]) for a, m in
             zip(np.cumsum(sizes) - sizes, sizes)]
    # median of means needs two blocks, as run_mc requires
    for b in range(1 if method == "plain" else 2, 41):
        got = [(e.n_samples, e.mean, e.std_error)
               for e in estimate_from_blocks(parts[:b], method)]
        want = _estimates_by_three_merge_alls(parts[:b], method)
        assert [(n, float(mu).hex(), float(s).hex()) for n, mu, s in got] \
            == [(n, float(mu).hex(), float(s).hex()) for n, mu, s in want], b


def test_run_mc_draws_each_sample_once_for_all_columns():
    calls = []

    def sampler(r, m):
        calls.append(m)
        v = r.standard_normal(m)
        return np.stack([v, 2 * v], axis=1)

    one, two = run_mc(sampler, 1000, 4)
    assert sum(calls) == 1000
    assert two.mean == 2 * one.mean and two.std_error == 2 * one.std_error


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_worker_count_defaults_to_the_cpus_of_this_process(monkeypatch):
    monkeypatch.delenv("SUBSING_WORKERS", raising=False)
    assert mc._worker_count() == len(os.sched_getaffinity(0))


def _threads() -> set:
    return {t.ident for t in threading.enumerate()}


# a block draws 64 paths of width 64 at a time: THREAD_DOUBLES doubles,
# or 64 fewer
@pytest.mark.parametrize("workers,paths,pooled", [
    ("2", mc.THREAD_DOUBLES // 64, True),
    ("2", mc.THREAD_DOUBLES // 64 - 1, False),
    ("1", mc.THREAD_DOUBLES // 64, False)],
    ids=["at-threshold", "under-threshold", "one-worker"])
def test_blocks_take_the_pool_only_from_thread_doubles(monkeypatch, workers,
                                                       paths, pooled):
    # two or more workers and a chunk of at least THREAD_DOUBLES doubles:
    # the calling thread and one helper per further worker share the
    # blocks, each drawn once; else the calling thread draws them all, in
    # block order, and no thread is started.  Every draw sees the threads
    # alive: the helper starts before the first block is drawn and leaves
    # only once the last one is taken, so it is seen at least once
    monkeypatch.setenv("SUBSING_WORKERS", workers)
    before = _threads()
    drawn, seen = [], set()

    def recorded(seed, index):
        drawn.append((index, threading.get_ident()))
        return stream(seed, index)

    def sampler(r, m):
        seen.update(_threads() - before)
        return r.standard_normal(m)

    monkeypatch.setattr(mc, "stream", recorded)
    run_mc(sampler, 32 * paths, 1, width=64)
    assert _threads() == before
    here = threading.get_ident()
    if pooled:
        assert sorted(b for b, _ in drawn) == list(range(32))
        assert len(seen) == 1
        assert {ident for _, ident in drawn} <= seen | {here}
    else:
        assert drawn == [(b, here) for b in range(32)]
        assert seen == set()


def test_no_more_helpers_than_blocks(monkeypatch):
    # four workers and two blocks of one 5,000-double sample, above
    # THREAD_DOUBLES: one helper at most.  Each draw waits 50 ms, so any
    # further helper would start while a block runs and be seen
    monkeypatch.setenv("SUBSING_WORKERS", "4")
    before = _threads()
    seen = set()

    def sampler(r, m):
        time.sleep(0.05)
        seen.update(_threads() - before)
        return r.standard_normal(m)

    run_mc(sampler, 2, 1, width=5000)
    assert len(seen) <= 1
    assert _threads() == before


def test_malformed_worker_count_raises_under_thread_doubles(monkeypatch):
    # the setting is checked on every run, also on one that takes no thread
    monkeypatch.setenv("SUBSING_WORKERS", "abc")
    with pytest.raises(DomainError, match="SUBSING_WORKERS"):
        run_mc(lambda r, m: r.standard_normal(m), 10, 1)


# spellings that start a thread
THREAD_STARTERS = ("ThreadPoolExecutor", "concurrent.futures", "threading.Thread")


def test_only_run_parts_starts_a_thread_or_packs_a_task_stream():
    # mc.py alone may start a thread, and only in run_parts: every Monte
    # Carlo run takes its one schedule.  A threading.local is allowed.  No
    # other module spells the task-stream index (key << 32) + j either
    for module in sorted(pathlib.Path(subsing.__file__).parent.glob("*.py")):
        if module.name == "mc.py":
            continue
        text = module.read_text()
        assert not [w for w in THREAD_STARTERS if w in text], module.name
        assert "<< 32" not in text, module.name
    source, run_parts = inspect.getsource(mc), inspect.getsource(mc.run_parts)
    assert source.count("ThreadPoolExecutor(") == 1
    assert "ThreadPoolExecutor(" in run_parts
    assert "streams((key << 32) + j)" in run_parts


@pytest.mark.parametrize("method", ["plain", "median_of_means"])
def test_estimates_do_not_depend_on_the_worker_count(monkeypatch, method):
    # chunks of 128 paths x 64 doubles take threads from two workers on,
    # up to more threads than cores, switching often; three columns, one
    # heavy-tailed, so a merge out of block order would show in the last bits
    def sampler(r, m):
        x = r.standard_normal((m, 64))
        return np.column_stack([x.sum(axis=1), (x * x).mean(axis=1),
                                1.0 / np.abs(x[:, 0])])

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "2", "3", "5"):
            monkeypatch.setenv("SUBSING_WORKERS", workers)
            runs.append(run_mc(sampler, 32 * 128 + 5, 8, method=method, width=64))
    finally:
        sys.setswitchinterval(interval)
    assert all(run == runs[0] for run in runs[1:])
    assert all(math.isfinite(est.mean) and est.std_error > 0 for est in runs[0])


@pytest.mark.parametrize("where", ["helper", "calling-thread"])
def test_an_error_in_a_block_leaves_no_thread(monkeypatch, where):
    # each thread waits in its first draw until the other has drawn, so
    # both take blocks; the error of either comes out of run_mc once the
    # helper is gone
    monkeypatch.setenv("SUBSING_WORKERS", "2")
    here = threading.get_ident()
    drew = {True: threading.Event(), False: threading.Event()}
    threads = threading.active_count()

    def sampler(r, m):
        on_helper = threading.get_ident() != here
        if not drew[on_helper].is_set():
            drew[on_helper].set()
            assert drew[not on_helper].wait(timeout=10), "one thread drew alone"
        if on_helper == (where == "helper"):
            raise NumericError(f"raised on the {where}")
        return r.standard_normal((m, 64)).sum(axis=1)

    with pytest.raises(NumericError, match=f"raised on the {where}"):
        run_mc(sampler, 32 * 128, 1, width=64)
    assert threading.active_count() == threads


def test_an_error_in_a_block_stops_the_other_threads(monkeypatch):
    # the calling thread's first block raises at once while each helper
    # block takes 1 ms: the helper finishes the block it holds and takes no
    # further one, so far fewer than the 32 blocks are drawn
    monkeypatch.setenv("SUBSING_WORKERS", "2")
    here = threading.get_ident()
    drawn = []

    def sampler(r, m):
        drawn.append(m)
        if threading.get_ident() == here:
            raise NumericError("raised on the calling thread")
        time.sleep(0.001)
        return r.standard_normal((m, 64)).sum(axis=1)

    with pytest.raises(NumericError, match="raised on the calling thread"):
        run_mc(sampler, 32 * 128, 1, width=64)
    assert len(drawn) < 32


def test_median_of_one_block_is_a_domain_error():
    drawn = []
    with pytest.raises(DomainError, match="two or more paths"):
        run_mc(lambda r, m: drawn.append(m) or r.standard_normal(m), 1, 1,
               method="median_of_means")
    assert drawn == []


def test_one_level_is_its_plain_estimate():
    rows = np.random.default_rng(0).standard_normal((50, 2))
    level = mc.Level(0.5, Moments.of(rows))
    assert mc.multilevel_estimates([level]) == estimate_from_blocks([level.moments])


def test_multilevel_estimate_sums_its_levels():
    # three hand-made levels of 40, 20 and 10 paths, two columns each
    rng = np.random.default_rng(1)
    samples = [rng.standard_normal((n, 2)) * 0.5 ** l + l
               for l, n in enumerate((40, 20, 10))]
    levels = [mc.Level(2.0 ** -l, Moments.of(x))
              for l, x in enumerate(samples)]
    ests = mc.multilevel_estimates(levels)
    assert len(ests) == 2
    for h, est in enumerate(ests):
        assert est.method == "multilevel" and est.n_samples == 70
        assert est.mean == pytest.approx(sum(x[:, h].mean() for x in samples),
                                         rel=1e-12)
        assert est.std_error == pytest.approx(
            math.sqrt(sum(x[:, h].var() / len(x) for x in samples)), rel=1e-12)


def test_level_paths_halve_down_to_two():
    assert [mc.level_paths(40, l) for l in range(7)] == [40, 20, 10, 5, 3, 2, 2]
    assert mc.level_paths(3, 10) == 2


def test_level_count_is_the_least_power_of_two_among_the_columns():
    assert mc.level_count([64, 32, 96]) == 5
    assert mc.level_count([64, 3]) == 0
