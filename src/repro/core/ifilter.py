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

from repro.common.containers import FullyAssociativeLRU


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
        self._buffer = FullyAssociativeLRU(slots)
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
        evicted = self._buffer.insert(block)
        if evicted is None:
            return None
        self.stats.victims += 1
        return evicted[0]

    def remove(self, block: int) -> bool:
        """Drop a block (used when a block is promoted elsewhere)."""
        try:
            self._buffer.remove(block)
            return True
        except KeyError:
            return False

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import save_stats

        return {
            "buffer": self._buffer.save_state(),
            "stats": save_stats(self.stats),
        }

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_stats

        self._buffer.load_state(state["buffer"])
        load_stats(self.stats, state["stats"])
