"""Reuse-distance (stack-distance) analysis — Figure 1a.

The paper defines reuse distance as the LRU stack distance: the number
of *unique* instruction blocks accessed between two successive accesses
to the same block.  We compute it exactly with the classic Fenwick-tree
algorithm: maintain one marker per block at its last access position;
the stack distance of a re-access is the number of markers strictly
between the previous and current positions.

Figure 1a buckets: 0 (spatial / same block), [1, 16] (short temporal),
(16, 512] (within i-cache reach), (512, 1024] (just beyond), and
(1024, 10000] (far).  Distances above 10000 and cold misses are
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: The paper's Figure 1a bucket labels, in order.
FIG1A_BUCKETS = ("0", "1-16", "16-512", "512-1024", "1024-10000")


class _Fenwick:
    """Binary indexed tree over trace positions (1-based)."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.size:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of markers at positions [0, i]."""
        i += 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of markers at positions [lo, hi]."""
        if hi < lo:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


def stack_distances(blocks: Sequence[int]) -> np.ndarray:
    """Exact LRU stack distance per access; -1 marks cold (first) accesses."""
    blocks_arr = np.asarray(blocks, dtype=np.int64)
    n = len(blocks_arr)
    out = np.full(n, -1, dtype=np.int64)
    tree = _Fenwick(n)
    last_pos: Dict[int, int] = {}
    for i, block in enumerate(blocks_arr.tolist()):
        prev = last_pos.get(block)
        if prev is not None:
            # Unique blocks touched strictly between prev and i:
            # markers live at each block's last-access position.
            out[i] = tree.range_sum(prev + 1, i - 1)
            tree.add(prev, -1)
        tree.add(i, 1)
        last_pos[block] = i
    return out


@dataclass
class ReuseHistogram:
    """Bucketed stack-distance distribution (Figure 1a row)."""

    workload: str
    counts: Dict[str, int]
    beyond: int
    cold: int

    @property
    def total_reuses(self) -> int:
        return sum(self.counts.values()) + self.beyond

    def percentages(self) -> Dict[str, float]:
        total = self.total_reuses
        if total == 0:
            return {label: 0.0 for label in self.counts}
        return {
            label: 100.0 * count / total for label, count in self.counts.items()
        }


def reuse_histogram(
    blocks: Sequence[int], workload: str = "trace"
) -> ReuseHistogram:
    """Figure 1a bucketing of exact stack distances."""
    distances = stack_distances(blocks)
    reused = distances[distances >= 0]
    cold = int((distances < 0).sum())
    counts = {
        "0": int((reused == 0).sum()),
        "1-16": int(((reused >= 1) & (reused <= 16)).sum()),
        "16-512": int(((reused > 16) & (reused <= 512)).sum()),
        "512-1024": int(((reused > 512) & (reused <= 1024)).sum()),
        "1024-10000": int(((reused > 1024) & (reused <= 10000)).sum()),
    }
    beyond = int((reused > 10000).sum())
    return ReuseHistogram(workload=workload, counts=counts, beyond=beyond, cold=cold)


def successive_distance_pairs(
    blocks: Sequence[int], edges: Sequence[int] = (1, 17, 513, 1025, 10001)
) -> np.ndarray:
    """Transition counts between successive reuse-distance buckets.

    Figure 1b's Markov chain: states are the Figure 1a buckets; the
    matrix entry [a][b] counts how often a block's reuse distance fell
    in bucket ``a`` and its *next* reuse distance fell in bucket ``b``.
    Returns the (len(edges)+1) x (len(edges)+1) count matrix, where the
    last state aggregates everything >= the final edge.
    """
    distances = stack_distances(blocks)
    blocks_arr = np.asarray(blocks, dtype=np.int64)
    n_states = len(edges) + 1
    matrix = np.zeros((n_states, n_states), dtype=np.int64)
    edges_arr = np.asarray(edges, dtype=np.int64)

    def bucket(d: int) -> int:
        return int(np.searchsorted(edges_arr, d, side="right"))

    previous_bucket: Dict[int, int] = {}
    for i in range(len(blocks_arr)):
        d = int(distances[i])
        if d < 0:
            continue
        b = bucket(d)
        block = int(blocks_arr[i])
        prev = previous_bucket.get(block)
        if prev is not None:
            matrix[prev][b] += 1
        previous_bucket[block] = b
    return matrix
