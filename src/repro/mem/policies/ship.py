"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO'11).

SHiP layers a reuse predictor over SRRIP.  Every line is tagged with a
signature; a Signature Hit Counter Table (SHCT) of saturating counters
learns whether lines with that signature tend to be re-referenced.
Lines whose signature never hits are inserted with the *distant* RRPV
so they are evicted first.

Table IV configuration: 13-bit signature, 8K-entry SHCT (2^13), 2-bit
counters.  For the instruction stream the natural signature is derived
from the block address (SHiP-Mem flavor): fetch "PC" and block are the
same entity.
"""

from __future__ import annotations

from typing import Dict, Optional, Iterable

from repro.common.bitops import fold_hash, mask
from repro.mem.policies.base import ReplacementPolicy


class SHiPPolicy(ReplacementPolicy):
    """SHiP-Mem over 2-bit SRRIP."""

    name = "ship"

    def __init__(
        self,
        signature_bits: int = 13,
        counter_bits: int = 2,
        rrpv_bits: int = 2,
    ) -> None:
        self.signature_bits = signature_bits
        self.counter_bits = counter_bits
        self.counter_max = mask(counter_bits)
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = mask(rrpv_bits)
        self.shct = [0] * (1 << signature_bits)
        self._rrpv: Dict[int, int] = {}
        # Per-line training state: signature and whether it hit since fill.
        self._sig: Dict[int, int] = {}
        self._outcome: Dict[int, bool] = {}

    def _signature(self, block: int) -> int:
        return fold_hash(block, self.signature_bits)

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        self._rrpv[block] = 0
        if not self._outcome.get(block, False):
            self._outcome[block] = True
            sig = self._sig.get(block)
            if sig is not None and self.shct[sig] < self.counter_max:
                self.shct[sig] += 1

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        rrpvs = self._rrpv
        while True:
            for block in resident:
                if rrpvs.get(block, self.rrpv_max) >= self.rrpv_max:
                    return block
            for block in resident:
                current = rrpvs.get(block, self.rrpv_max)
                if current < self.rrpv_max:
                    rrpvs[block] = current + 1

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        sig = self._signature(block)
        self._sig[block] = sig
        self._outcome[block] = False
        if prefetch or self.shct[sig] == 0:
            self._rrpv[block] = self.rrpv_max  # predicted no-reuse: distant
        else:
            self._rrpv[block] = self.rrpv_max - 1

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        if not self._outcome.pop(block, True):
            sig = self._sig.get(block)
            if sig is not None and self.shct[sig] > 0:
                self.shct[sig] -= 1
        self._sig.pop(block, None)
        self._rrpv.pop(block, None)
