"""Belady's OPT replacement (the MIN algorithm), driven by the oracle.

OPT evicts the resident line whose next use is furthest in the future.
With ``allow_bypass=True`` (the default, matching MIN) the incoming
line itself may be that "furthest" line, in which case the fill is
bypassed — the paper's "OPT bypass" row shows this barely differs from
pure OPT replacement for the i-cache.

The policy caches each resident line's next-use time and refreshes it
on every touch, so victim selection is a max over ``ways`` values.
"""

from __future__ import annotations

from typing import Dict, Optional, Iterable

from repro.mem.oracle import NEVER, NextUseOracle
from repro.mem.policies.base import ReplacementPolicy


class BeladyOPTPolicy(ReplacementPolicy):
    """Oracle-based optimal replacement."""

    name = "opt"

    def __init__(self, oracle: NextUseOracle, allow_bypass: bool = True) -> None:
        self.oracle = oracle
        self.allow_bypass = allow_bypass
        self._next_use: Dict[int, int] = {}

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        self._next_use[block] = self.oracle.next_use_at(t)

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        next_use = self._next_use
        victim = None
        furthest = -1
        for block in resident:
            when = next_use.get(block, NEVER)
            if when > furthest:
                furthest = when
                victim = block
        if self.allow_bypass:
            incoming_next = self.oracle.next_use_of(incoming, t)
            if incoming_next >= furthest:
                return None
        return victim

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        if prefetch:
            self._next_use[block] = self.oracle.next_use_of(block, t)
        else:
            self._next_use[block] = self.oracle.next_use_at(t)

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        self._next_use.pop(block, None)
