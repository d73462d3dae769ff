"""Readable reference for :class:`repro.mem.oracle.NextUseOracle`.

The obvious build: one backward pass over the trace for each access's
next use, one forward pass for every block's sorted position list.
``tests/test_oracle.py`` pins the argsort/CSR production build to it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence

from repro.mem.oracle import NEVER


class ReferenceNextUseOracle:
    """Two Python loops over the trace; same queries as the oracle."""

    def __init__(self, blocks: Sequence[int]) -> None:
        blocks = [int(b) for b in blocks]
        n = len(blocks)
        self.length = n
        next_use = [NEVER] * n
        last_seen: Dict[int, int] = {}
        # Backward pass: next_use[t] = the index of the following access.
        for t in range(n - 1, -1, -1):
            block = blocks[t]
            seen = last_seen.get(block)
            if seen is not None:
                next_use[t] = seen
            last_seen[block] = t
        self._next_use = next_use
        # Per-block sorted position lists for arbitrary-time queries.
        positions: Dict[int, List[int]] = {}
        for t, block in enumerate(blocks):
            positions.setdefault(block, []).append(t)
        self._positions = positions

    def next_use_at(self, t: int) -> int:
        return self._next_use[t]

    def next_use_of(self, block: int, t: int) -> int:
        pos = self._positions.get(block)
        if not pos:
            return NEVER
        i = bisect_right(pos, t)
        return pos[i] if i < len(pos) else NEVER
