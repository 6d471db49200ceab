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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .rng import stream

DEFAULT_BLOCKS = 32


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo statistic with its uncertainty and tail diagnostics.

    ``std_error`` is sample-sd/sqrt(n) for a plain mean, from merged
    (count, mean, M2) partials; for median-of-means it is
    sqrt(pi/(2B)) * sd(block means), the asymptotic SE of a median of B
    nearly Gaussian block means.  ``heavy_tail_flag`` is set when the empirical
    second moment keeps growing across doubling sample sizes.
    """

    n_samples: int
    mean: float
    std_error: float
    heavy_tail_flag: bool = False
    method: str = "plain"  # "plain" | "median_of_means"

    def agrees_with(self, target: float, n_se: float = 3.0) -> bool:
        if not math.isfinite(self.mean) or not math.isfinite(target):
            return self.mean == target
        return abs(self.mean - target) <= n_se * self.std_error


def _worker_count() -> int:
    raw = os.environ.get("SUBSING_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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

    def estimates(self) -> list:
        """Plain-mean estimate per column, with SE sqrt(M2 / n) / sqrt(n)."""
        n = self.count
        return [MCEstimate(n, float(mu), math.sqrt(m2) / n) if math.isfinite(mu)
                else MCEstimate(n, float(mu), math.inf, True)
                for mu, m2 in zip(np.ravel(self.mean), np.ravel(self.m2))]


def merge_all(parts) -> Moments:
    """Fold partials left to right, so the result depends only on their order."""
    return functools.reduce(Moments.merge, parts)


def block_values(sampler, n_samples: int, seed: int, *, blocks: int = DEFAULT_BLOCKS,
                 max_chunk: int = 4096) -> list:
    """Run ``sampler(rng, m) -> (m,) array`` over ``blocks`` derived streams.

    Returns one :class:`Moments` per block, in block order.  Within a block
    the stream is consumed chunk by chunk, so the values are fixed by
    (seed, blocks, max_chunk) and do not depend on the worker count; a
    sampler that draws more than once per call sees a different split of
    its stream under another ``max_chunk``.
    """
    counts = np.full(blocks, n_samples // blocks, dtype=np.int64)
    counts[: n_samples % blocks] += 1

    def run_block(b: int) -> Moments:
        rng = stream(seed, b)
        left = int(counts[b])
        parts = []
        while left > 0:
            m = min(left, max_chunk)
            parts.append(Moments.of(sampler(rng, m)))
            left -= m
        return merge_all(parts)

    width = _worker_count()
    if width > 1:
        with ThreadPoolExecutor(max_workers=width) as pool:
            return list(pool.map(run_block, range(blocks)))
    return [run_block(b) for b in range(blocks)]


def _heavy_tail(blocks: list) -> bool:
    # second moment over the first quarter, half and all blocks; non-stabilizing
    # growth marks an (effectively) infinite-variance integrand
    b = len(blocks)
    if b < 4:
        return False
    m2 = []
    for k in (b // 4, b // 2, b):
        acc = merge_all(blocks[:k])
        m2.append(float(acc.m2 / acc.count + acc.mean * acc.mean))
    if any(not math.isfinite(v) for v in m2):
        return True
    return bool(m2[0] < m2[1] < m2[2] and m2[2] > 1.5 * m2[0])


def estimate_from_blocks(blocks: list, method: str = "plain") -> MCEstimate:
    """Plain mean or median of means of per-block :class:`Moments`."""
    flag = _heavy_tail(blocks)
    if method == "median_of_means":
        n = sum(blk.count for blk in blocks)
        means = np.array([float(blk.mean) for blk in blocks])
        mom = float(np.median(means))
        se = math.sqrt(math.pi / (2 * len(means))) * float(np.std(means, ddof=1))
        if not np.all(np.isfinite(means)):
            flag = True
        return MCEstimate(n, mom, se, flag, "median_of_means")
    est = merge_all(blocks).estimates()[0]
    return replace(est, heavy_tail_flag=est.heavy_tail_flag or flag)


def run_mc(sampler, n_samples: int, seed: int, *, method: str = "plain",
           max_chunk: int = 4096) -> MCEstimate:
    if n_samples <= 0:
        raise DomainError("need a positive sample count")
    blocks = min(DEFAULT_BLOCKS, n_samples)
    return estimate_from_blocks(block_values(sampler, n_samples, seed, blocks=blocks,
                                             max_chunk=max_chunk), method)


def wilson_interval(successes: int, n: int, z: float = 2.5758293035489004):
    """Wilson score interval; default z is the two-sided 99% quantile."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
