"""Traditional fully-associative victim cache (Jouppi, ISCA'90).

Table IV's "VC3K" row: a 3 KB fully-associative LRU victim cache next
to the L1i.  Blocks evicted from the L1i are parked here; a fetch that
misses the L1i but hits the victim cache swaps the block back (paying a
small extra latency rather than a full miss).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import BLOCK_BYTES
from repro.common.containers import LRUSet


@dataclass
class VictimCacheStats:
    probes: int = 0
    hits: int = 0
    inserts: int = 0


class VictimCache:
    """Fully-associative LRU victim buffer."""

    def __init__(self, size_bytes: int = 3 * 1024, block_bytes: int = BLOCK_BYTES) -> None:
        capacity = size_bytes // block_bytes
        if capacity <= 0:
            raise ValueError(f"victim cache too small: {size_bytes} bytes")
        self.capacity = capacity
        self._buffer = LRUSet(capacity)
        self.stats = VictimCacheStats()

    def __contains__(self, block: int) -> bool:
        return block in self._buffer

    def __len__(self) -> int:
        return len(self._buffer)

    def probe(self, block: int) -> bool:
        """Look up ``block``; a hit removes it (it moves back to L1)."""
        self.stats.probes += 1
        if self._buffer.remove(block):
            self.stats.hits += 1
            return True
        return False

    def insert(self, block: int) -> None:
        """Park an L1 victim; silently drops the LRU victim when full."""
        self.stats.inserts += 1
        self._buffer.insert_mru(block)
