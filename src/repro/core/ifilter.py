"""i-Filter: the small fully-associative buffer absorbing access bursts.

Section II/III: a 16-slot fully-associative LRU buffer sits next to the
i-cache (Figure 2).  Fetches probe both structures in parallel; misses
fill the i-Filter *only*.  When the i-Filter must evict, the victim is
handed to the admission controller, which decides whether it enters the
i-cache or is dropped.

Each entry holds 58 tag bits + 1 valid + 4 LRU bits + the 64 B block
(Table I: 1.123 KB total) — the storage model lives in
:mod:`repro.analysis.storage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.containers import LRUSet


@dataclass
class IFilterStats:
    lookups: int = 0
    hits: int = 0
    fills: int = 0
    victims: int = 0


class IFilter:
    """16-entry fully-associative LRU instruction-block buffer."""

    def __init__(self, slots: int = 16) -> None:
        if slots <= 0:
            raise ValueError(f"i-Filter needs at least one slot, got {slots}")
        self.slots = slots
        self._buffer = LRUSet(slots)
        self.stats = IFilterStats()

    def __contains__(self, block: int) -> bool:
        return block in self._buffer

    def __len__(self) -> int:
        return len(self._buffer)

    def lookup(self, block: int) -> bool:
        """Demand probe; a hit refreshes the block's recency."""
        self.stats.lookups += 1
        if self._buffer.touch(block):
            self.stats.hits += 1
            return True
        return False

    def fill(self, block: int) -> Optional[int]:
        """Insert a missed block; returns the evicted victim, if any.

        The caller (the admission controller) owns the victim's fate.
        """
        self.stats.fills += 1
        victim = self._buffer.insert_mru(block)
        if victim is not None:
            self.stats.victims += 1
        return victim
