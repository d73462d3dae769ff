"""Shared low-level building blocks used by every substrate.

This package deliberately contains only dependency-free primitives:
bit manipulation helpers, the dict-backed LRU container and summary
statistics.  Higher layers (the cache model, ACIC, the harness)
compose these.
"""

from repro.common.bitops import (
    block_of,
    fold_hash,
    is_power_of_two,
    log2_exact,
    mask,
    partial_tag,
)
from repro.common.containers import LRUSet
from repro.common.stats import RunningMean, geomean, percent

__all__ = [
    "block_of",
    "fold_hash",
    "is_power_of_two",
    "log2_exact",
    "mask",
    "partial_tag",
    "LRUSet",
    "RunningMean",
    "geomean",
    "percent",
]
