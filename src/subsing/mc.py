"""Chunked Monte Carlo engine with order-independent aggregation.

Samples are produced in blocks, one derived random stream per block, and the
block partials are combined in fixed block order.  This makes every estimate
reproducible regardless of how blocks are scheduled, and the block structure
doubles as the median-of-means partition for heavy-tailed integrands.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    (:func:`subsing.spde.multilevel_estimates`), the square root of the
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


def workers_for(doubles: int) -> int:
    """Threads for a run whose largest vectorized call handles ``doubles``
    doubles: the worker count, or 1, the calling thread alone, when that
    count is 1 or the call is under ``THREAD_DOUBLES``.  No thread changes
    a result; this decides only where the run's blocks or tasks go."""
    workers = _worker_count()
    return workers if doubles >= THREAD_DOUBLES else 1


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


def run_mc(sampler, n_samples: int, seed: int, *, method: str = "plain",
           width: int = 1) -> list:
    """One :class:`MCEstimate` per column of ``sampler(rng, m) -> (m,) or
    (m, d)``, whose samples take ``width`` doubles each to draw.  Block b of
    min(DEFAULT_BLOCKS, n_samples) draws from ``stream(seed, b)`` in chunks
    of at most max(8, min(4096, CHUNK_DOUBLES // width)) samples and the
    block partials merge in block order, so no worker count changes the
    result.  The calling thread and :func:`workers_for` (one chunk's
    doubles) - 1 helper threads take block indices from one shared iterator
    (each ``next`` holds the interpreter lock, so every block is taken
    once) and store each block's partial by its index; with no helper the
    calling thread runs the blocks in block order.  An error raised in a
    block empties the iterator, so no thread takes a further block, and is
    raised here once every thread has stopped.
    """
    if n_samples <= 0:
        raise DomainError("need a positive sample count")
    blocks = min(DEFAULT_BLOCKS, n_samples)
    if method == "median_of_means" and blocks < 2:
        raise DomainError("median of means needs two or more paths")

    chunk = max(8, min(4096, CHUNK_DOUBLES // width))

    parts = [None] * blocks
    todo = iter(range(blocks))

    def run_blocks() -> None:
        try:
            for b in todo:
                rng = stream(seed, b)
                left = n_samples // blocks + (b < n_samples % blocks)
                chunks = []
                while left > 0:
                    m = min(left, chunk)
                    chunks.append(Moments.of(sampler(rng, m)))
                    left -= m
                parts[b] = merge_all(chunks)
        except BaseException:
            for _ in todo:      # the other threads take no further block
                pass
            raise

    helpers = workers_for(min(chunk, -(-n_samples // blocks)) * width) - 1
    if helpers == 0:
        run_blocks()
    else:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            done = [pool.submit(run_blocks) for _ in range(helpers)]
            run_blocks()
        for future in done:
            future.result()
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
