"""SRRIP: Static Re-Reference Interval Prediction (Jaleel et al., ISCA'10).

Each line carries an M-bit re-reference prediction value (RRPV).  New
lines are inserted with a *long* re-reference prediction (RRPV =
2^M - 2); hits promote to RRPV 0 (hit-priority variant); the victim is
a line with the *distant* prediction (RRPV = 2^M - 1), aging all lines
when none qualifies.  Table IV uses the 2-bit configuration.
"""

from __future__ import annotations

from typing import Dict, Optional, Iterable

from repro.common.bitops import mask
from repro.mem.policies.base import ReplacementPolicy


class SRRIPPolicy(ReplacementPolicy):
    """Hit-priority SRRIP with M-bit RRPVs (default M=2)."""

    name = "srrip"

    def __init__(self, rrpv_bits: int = 2) -> None:
        if rrpv_bits <= 0:
            raise ValueError(f"rrpv_bits must be positive, got {rrpv_bits}")
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = mask(rrpv_bits)
        self.insert_rrpv = self.rrpv_max - 1
        self._rrpv: Dict[int, Dict[int, int]] = {}

    def _set_rrpvs(self, set_index: int) -> Dict[int, int]:
        rrpvs = self._rrpv.get(set_index)
        if rrpvs is None:
            rrpvs = {}
            self._rrpv[set_index] = rrpvs
        return rrpvs

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        self._set_rrpvs(set_index)[block] = 0

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        rrpvs = self._set_rrpvs(set_index)
        while True:
            for block in resident:  # LRU -> MRU: prefer the stalest distant line
                if rrpvs.get(block, self.rrpv_max) >= self.rrpv_max:
                    return block
            for block in resident:
                current = rrpvs.get(block, self.rrpv_max)
                if current < self.rrpv_max:
                    rrpvs[block] = current + 1

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        # Prefetched lines are inserted with the distant prediction so an
        # inaccurate prefetch is the first to go (standard practice).
        rrpvs = self._set_rrpvs(set_index)
        rrpvs[block] = self.rrpv_max if prefetch else self.insert_rrpv

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        self._set_rrpvs(set_index).pop(block, None)

    _STATE_ATTRS = ("_rrpv",)

    def save_state(self) -> dict:
        from repro.common.state import save_attrs

        return save_attrs(self, self._STATE_ATTRS)

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs

        load_attrs(self, state, self._STATE_ATTRS)
