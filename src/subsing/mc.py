"""The Monte Carlo engine, with order-independent aggregation.

Every run, integral blocks or SPDE chunks, is tasks of :func:`run_parts`,
one derived random stream per task, whose partials combine in fixed task
order.  So every estimate is reproducible however its tasks are scheduled,
and the blocks double as the median-of-means partition of heavy tails.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .rng import stream

DEFAULT_BLOCKS = 32
# doubles that one chunk of paths may hold: the Monte Carlo chunk sizes of
# the integral and SPDE samplers are cut to it
CHUNK_DOUBLES = 2_000_000
# doubles that one vectorized call of a run must handle before the run takes
# threads: below it, passing the interpreter lock between threads around
# many small numpy calls costs more than the threads overlap
THREAD_DOUBLES = 4096


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo statistic with its uncertainty and tail diagnostics.

    ``method`` names the estimator, and ``std_error`` follows it:
    sample-sd/sqrt(n) for a ``plain`` mean, nan at n = 1, from merged
    (count, mean, M2) partials; sqrt(pi/(2B)) * sd(block means) for
    ``median_of_means``, the asymptotic SE of a median of B nearly Gaussian
    block means; and for ``multilevel``, a sum of level means
    (:func:`subsing.mc.multilevel_estimates`), the square root of the
    summed squares of the level SEs.  ``heavy_tail_flag`` is read off the
    estimate: set for a median of means, whether the variance rule of
    :func:`subsing.moments._auto_method` or the caller chose it, and for a
    non-finite mean.
    """

    n_samples: int
    mean: float
    std_error: float
    method: str = "plain"  # "plain" | "median_of_means" | "multilevel"

    @property
    def heavy_tail_flag(self) -> bool:
        return self.method == "median_of_means" or not math.isfinite(self.mean)

    def agrees_with(self, target: float) -> bool:
        if not math.isfinite(self.mean) or not math.isfinite(target):
            return self.mean == target
        return abs(self.mean - target) <= 3.0 * self.std_error


def _worker_count() -> int:
    """``SUBSING_WORKERS`` if set, else the CPUs this process may run on."""
    raw = os.environ.get("SUBSING_WORKERS", "")
    if not raw:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    if not (raw.isdecimal() and int(raw) > 0):
        raise DomainError(f"SUBSING_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class Moments:
    """Count, mean and centred sum of squares (M2) of a sample, per column.

    Partials of disjoint samples combine exactly by the pairwise update of
    Chan, Golub & LeVeque (1979), so variances never come from the
    cancellation-prone E[x^2] - mean^2.  ``mean`` and ``m2`` are arrays of
    the sample's column shape (0-d for a sample of scalars).
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, values) -> "Moments":
        """Partials of the rows of ``values``, shape (m,) or (m, d), m >= 1."""
        v = np.asarray(values, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            # centring on the first row keeps a constant sample at M2 == 0
            # exactly; a non-finite column keeps the plain mean (+inf, nan)
            d = v - v[0]
            dm = d.mean(axis=0)
            mean = np.where(np.isfinite(dm), v[0] + dm, v.mean(axis=0))
            m2 = ((d - dm) ** 2).sum(axis=0)
        return cls(len(v), mean, m2)

    def merge(self, other: "Moments") -> "Moments":
        n = self.count + other.count
        with np.errstate(invalid="ignore", over="ignore"):
            delta = other.mean - self.mean
            mean = np.where(np.isfinite(delta),
                            self.mean + delta * (other.count / n),
                            self.mean + other.mean)
            m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return Moments(n, mean, m2)


def merge_all(parts) -> Moments:
    """Fold partials left to right, so the result depends only on their order."""
    return functools.reduce(Moments.merge, parts)


def estimate_from_blocks(blocks: list, method: str = "plain") -> list:
    """One :class:`MCEstimate` per column: plain mean or median of block means."""
    acc = merge_all(blocks)
    n = acc.count
    if method == "median_of_means":
        means = np.array([np.ravel(blk.mean) for blk in blocks])
        finite = np.all(np.isfinite(means), axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            sd = np.std(means, axis=0, ddof=1)
        # a column with an infinite block mean has an infinite SE, as a plain mean does
        se = np.where(finite, math.sqrt(math.pi / (2 * len(means))) * sd, math.inf)
        return [MCEstimate(n, float(mu), float(s), "median_of_means")
                for mu, s in zip(np.median(means, axis=0), se)]
    # plain mean per column, SE sqrt(M2 / n) / sqrt(n): nan, not 0, from one sample
    return [MCEstimate(n, float(mu), math.sqrt(m2) / n if n > 1 else math.nan)
            if math.isfinite(mu) else MCEstimate(n, float(mu), math.inf)
            for mu, m2 in zip(np.ravel(acc.mean), np.ravel(acc.m2))]


def level_count(cols: Sequence[int]) -> int:
    """Halvings of a grid on which every column stays a node: the least
    power of two among the columns.  Level 0 is the grid so coarsened."""
    return min((c & -c).bit_length() - 1 for c in cols)


def level_paths(N: int, level: int) -> int:
    """Paths of ``level`` in a run on N paths: N at level 0, then
    max(2, ceil(N / 2^l)), so that each level steps about as many cells."""
    return N if level == 0 else max(2, -(-N // (1 << level)))


@dataclass(frozen=True)
class Level:
    """One level of a multilevel run: its grid step and the merged
    :class:`Moments` of its statistic over its paths, per column: the plain
    statistic on level 0, the fine less the coarse one above it."""

    dt: float
    moments: Moments


def multilevel_estimates(levels: Sequence[Level]) -> list:
    """One MCEstimate per column: the sum of the level means, with SE
    sqrt(sum of the level SEs squared) and ``method="multilevel"``, each
    level's terms :func:`estimate_from_blocks` of its one partial.  A run of
    one level is that level's plain estimate."""
    terms = [estimate_from_blocks([lv.moments]) for lv in levels]
    if len(levels) == 1:
        return terms[0]
    paths = sum(lv.moments.count for lv in levels)
    return [MCEstimate(paths, sum(e.mean for e in col),
                       math.sqrt(sum(e.std_error * e.std_error for e in col)),
                       "multilevel")
            for col in zip(*terms)]


def run_parts(streams, runs, doubles: int) -> list:
    """One list of task partials per run ``(key, sizes, cap, sample)``:
    task j draws ``sizes[j]`` samples of ``sample(rng, m) -> (m,) or (m,
    d)``, m <= cap, from ``streams((key << 32) + j)`` and merges their
    :class:`Moments` in draw order.  ``streams`` is the caller's
    ``functools.partial(stream, seed)``: a stream is drawn through the
    caller's own ``stream`` name, so a trace of mc's counts run_mc's blocks
    alone.  At one worker, or where the largest vectorized call handles
    ``doubles`` < ``THREAD_DOUBLES``, the calling thread runs the tasks in
    run and task order.  Otherwise it and min(workers, tasks) - 1 helpers
    take tasks from one shared iterator (each ``next`` holds the
    interpreter lock, so every task is taken once) and store each partial
    in its place.  An error in a task empties the iterator and is raised
    once every thread has stopped.
    """
    parts = [[None] * len(sizes) for _, sizes, _, _ in runs]
    tasks = [(r, j) for r, part in enumerate(parts) for j in range(len(part))]
    todo = iter(tasks)

    def work() -> None:
        try:
            for r, j in todo:
                key, sizes, cap, sample = runs[r]
                rng = streams((key << 32) + j)
                chunks, left = [], sizes[j]
                while left > 0:
                    m = min(left, cap)
                    chunks.append(Moments.of(sample(rng, m)))
                    left -= m
                parts[r][j] = merge_all(chunks)
        except BaseException:
            for _ in todo:      # the other threads take no further task
                pass
            raise

    workers = _worker_count()      # read, and checked, on every run
    helpers = min(workers if doubles >= THREAD_DOUBLES else 1, len(tasks)) - 1
    if helpers < 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            done = [pool.submit(work) for _ in range(helpers)]
            work()
        for future in done:
            future.result()
    return parts


def run_mc(sampler, n_samples: int, seed: int, *, method: str = "plain",
           width: int = 1) -> list:
    """One :class:`MCEstimate` per column of ``sampler(rng, m) -> (m,) or
    (m, d)``, whose samples take ``width`` doubles each to draw.  Block b of
    min(DEFAULT_BLOCKS, n_samples), near-equal in size, is task b of the one
    run, key 0, of :func:`run_parts`: it draws from ``stream(seed, b)`` in
    chunks of at most max(8, min(4096, CHUNK_DOUBLES // width)) samples, and
    the block partials merge in block order, so no worker count changes the
    result.
    """
    if n_samples <= 0:
        raise DomainError("need a positive sample count")
    blocks = min(DEFAULT_BLOCKS, n_samples)
    if method == "median_of_means" and blocks < 2:
        raise DomainError("median of means needs two or more paths")
    chunk = max(8, min(4096, CHUNK_DOUBLES // width))
    sizes = [n_samples // blocks + (b < n_samples % blocks) for b in range(blocks)]
    [parts] = run_parts(functools.partial(stream, seed),
                        [(0, sizes, chunk, sampler)], min(chunk, sizes[0]) * width)
    return estimate_from_blocks(parts, method)


def wilson_interval(successes: int, n: int):
    """Wilson score interval at the two-sided 99% normal quantile z."""
    if n == 0:
        return 0.0, 1.0
    z = 2.5758293035489004
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
