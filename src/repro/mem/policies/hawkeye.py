"""Hawkeye/Harmony: OPT-learning replacement (Jain & Lin, ISCA'16/'18).

Hawkeye reconstructs what Belady's OPT *would have done* on the recent
access stream (OPTgen occupancy vectors) and trains a signature-indexed
predictor with those labels.  Predicted cache-friendly lines are kept
(RRIP 0); predicted cache-averse lines are marked for immediate
eviction (RRIP 7).  Harmony is the prefetch-aware variant: prefetch
fills are inserted cache-averse and do not charge OPTgen, so a covered
prefetch never counts as an OPT hit.

Table IV configuration: 64-entry occupancy vectors, 8K-entry predictor,
3-bit training counters, 3-bit RRIP.
"""

from __future__ import annotations

from typing import Dict, Optional, Iterable

from repro.common.bitops import fold_hash, mask
from repro.mem.policies.base import ReplacementPolicy


class _OPTgen:
    """Occupancy-vector reconstruction of OPT for one cache set."""

    __slots__ = ("capacity", "window", "time", "occ")

    def __init__(self, capacity: int, window: int) -> None:
        self.capacity = capacity
        self.window = window
        self.time = 0
        self.occ = [0] * window

    def advance(self) -> int:
        """Open a new time quantum; returns its absolute index."""
        self.time += 1
        self.occ[self.time % self.window] = 0
        return self.time

    def opt_would_hit(self, last_time: int) -> bool:
        """Would OPT have kept the line live over (last_time, now]?

        True iff every quantum in the usage interval still has spare
        capacity; in that case the interval is charged (occupancy++).
        """
        if self.time - last_time >= self.window:
            return False
        occ, window, capacity = self.occ, self.window, self.capacity
        for q in range(last_time, self.time):
            if occ[q % window] >= capacity:
                return False
        for q in range(last_time, self.time):
            occ[q % window] += 1
        return True


class HawkeyePolicy(ReplacementPolicy):
    """Hawkeye for the L1 i-cache (signature = hashed block address)."""

    name = "hawkeye"

    def __init__(
        self,
        ways: int = 8,
        vector_entries: int = 64,
        predictor_bits: int = 13,
        counter_bits: int = 3,
        rrip_bits: int = 3,
    ) -> None:
        self.ways = ways
        self.vector_entries = vector_entries
        self.counter_max = mask(counter_bits)
        self.counter_mid = (self.counter_max + 1) // 2
        self.predictor_bits = predictor_bits
        self.predictor = [self.counter_mid] * (1 << predictor_bits)
        self.rrip_max = mask(rrip_bits)
        self._optgen: Dict[int, _OPTgen] = {}
        # Per-set sampler: block -> last access quantum and signature,
        # packed into one int (``quantum << predictor_bits | sig``) so
        # the hot _observe path updates a flat int-keyed/int-valued dict
        # instead of allocating a tuple per access.
        self._history: Dict[int, Dict[int, int]] = {}
        # Per-set RRIP values: set_index -> {block: rrpv}.
        self._rrpv: Dict[int, Dict[int, int]] = {}
        self._sig_of_line: Dict[int, int] = {}
        # Signature memo: fold_hash is pure and the instruction stream
        # revisits the same blocks constantly, so hash each block once.
        self._sig_memo: Dict[int, int] = {}

    # -- predictor ---------------------------------------------------------

    #: Memo growth guard; recomputation is pure, clearing is invisible.
    _MEMO_CAP = 1 << 20

    def _signature(self, block: int) -> int:
        sig = self._sig_memo.get(block)
        if sig is None:
            sig = fold_hash(block, self.predictor_bits)
            if len(self._sig_memo) >= self._MEMO_CAP:
                self._sig_memo.clear()
            self._sig_memo[block] = sig
        return sig

    def _is_friendly(self, sig: int) -> bool:
        return self.predictor[sig] >= self.counter_mid

    def _train(self, sig: int, opt_hit: bool) -> None:
        value = self.predictor[sig]
        if opt_hit:
            if value < self.counter_max:
                self.predictor[sig] = value + 1
        elif value > 0:
            self.predictor[sig] = value - 1

    def _set_rrpvs(self, set_index: int) -> Dict[int, int]:
        rrpvs = self._rrpv.get(set_index)
        if rrpvs is None:
            rrpvs = {}
            self._rrpv[set_index] = rrpvs
        return rrpvs

    # -- OPTgen bookkeeping --------------------------------------------------

    def _observe(self, set_index: int, block: int) -> None:
        optgen = self._optgen.get(set_index)
        if optgen is None:
            optgen = _OPTgen(self.ways, self.vector_entries)
            self._optgen[set_index] = optgen
            self._history[set_index] = {}
        history = self._history[set_index]
        sig_bits = self.predictor_bits

        previous = history.pop(block, None)
        if previous is not None:
            last_time = previous >> sig_bits
            last_sig = previous & ((1 << sig_bits) - 1)
            self._train(last_sig, optgen.opt_would_hit(last_time))
        now = optgen.advance()
        history[block] = (now << sig_bits) | self._signature(block)
        # Bound the sampler: entries older than the occupancy window can
        # never produce an OPT hit, so drop them once enough accumulate
        # (insertion order approximates age order).
        if len(history) > 8 * self.vector_entries:
            # ts <= now - window  <=>  packed < (now - window + 1) << bits
            horizon = (now - optgen.window + 1) << sig_bits
            for b in [b for b, packed in history.items() if packed < horizon]:
                del history[b]

    # -- ReplacementPolicy interface ----------------------------------------

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        self._observe(set_index, block)
        friendly = self._is_friendly(self._signature(block))
        self._set_rrpvs(set_index)[block] = 0 if friendly else self.rrip_max

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        rrpvs = self._set_rrpvs(set_index)
        for block in resident:
            if rrpvs.get(block, self.rrip_max) >= self.rrip_max:
                return block
        # No cache-averse candidate: evict the stalest friendly line and
        # detrain its signature (Hawkeye's corrective feedback).
        victim = next(iter(resident))
        worst = -1
        for block in resident:
            rrpv = rrpvs.get(block, 0)
            if rrpv > worst:
                worst = rrpv
                victim = block
        victim_sig = self._sig_of_line.get(victim)
        if victim_sig is not None:
            self._train(victim_sig, opt_hit=False)
        return victim

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        if not prefetch:
            self._observe(set_index, block)
        sig = self._signature(block)
        self._sig_of_line[block] = sig
        rrpvs = self._set_rrpvs(set_index)
        if not prefetch and self._is_friendly(sig):
            # Age the other lines of this set so old friendlies yield.
            for other, rrpv in rrpvs.items():
                if rrpv < self.rrip_max - 1:
                    rrpvs[other] = rrpv + 1
            rrpvs[block] = 0
        else:
            rrpvs[block] = self.rrip_max

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        self._set_rrpvs(set_index).pop(block, None)
        self._sig_of_line.pop(block, None)

    # ``_sig_memo`` is a pure cache and stays out of the snapshot.  The
    # per-set ``_OPTgen`` objects are plain value objects (module-level
    # class, slots of ints/lists) so they deepcopy and pickle cleanly.
    _STATE_ATTRS = ("predictor", "_optgen", "_history", "_rrpv", "_sig_of_line")

    def save_state(self) -> dict:
        from repro.common.state import save_attrs

        return save_attrs(self, self._STATE_ATTRS)

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs

        load_attrs(self, state, self._STATE_ATTRS)
