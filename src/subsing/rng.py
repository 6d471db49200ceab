"""Deterministic random-stream derivation.

One master seed drives every experiment.  Per-replica (or per-block) streams
are derived by mixing (seed, index) through a splitmix64 finalizer, so replicas
can be generated in any order, or in parallel, and still reproduce bit for bit.
Every generator of the package is a :func:`stream`.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """64-bit avalanche finalizer (splitmix64)."""
    x &= _MASK
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, index: int) -> int:
    """Mix a master seed with a stream index into an independent 64-bit seed."""
    return splitmix64(splitmix64(master) ^ splitmix64(index * _GOLDEN + 1))


def stream(master: int, index: int) -> np.random.Generator:
    """Generator for stream ``index`` of master seed ``master``."""
    return np.random.default_rng(derive_seed(master, index))
