"""Readable reference policies for the fused GHRP, Harmony and OPT twins.

The scheme registry builds the fused twins in
:mod:`repro.mem.policies` (``FlatGHRPScheme``, ``FlatHawkeyeScheme``,
``FlatOPTScheme``).  These are the same policies written plainly
against the :class:`~repro.mem.policies.base.ReplacementPolicy`
interface, for ``PlainCacheScheme`` and ``SetAssociativeCache`` to
drive.  The differential suites compare each twin against them, through
:func:`reference.readable_registry` and
:func:`reference.state.readable_shape`.

* :class:`GHRPPolicy` — global-history dead-block prediction (Ajorpaz
  et al., ISCA'18).  Every access signs its block's code region; a
  global history register mixes in recent signatures; three tables of
  2-bit counters, indexed by three hashes of (signature, GHR), vote on
  deadness.  The victim is the predicted-dead line nearest LRU, else
  plain LRU.  A line touched again trains *live* through the indices
  captured at its previous touch; a line evicted without a re-touch
  trains *dead* through them.
* :class:`HawkeyePolicy` — OPT-learning replacement (Jain & Lin,
  ISCA'16/'18), Harmony flavour for prefetch.  Per-set OPTgen occupancy
  vectors (:class:`_OPTgen`) label each reuse with what Belady's OPT
  would have done, and train a signature-indexed predictor.  Friendly
  lines insert at RRIP 0, averse ones at RRIP 7; prefetch fills insert
  averse and do not charge OPTgen.
* :class:`BeladyOPTPolicy` — Belady's MIN driven by the oracle: evict
  the line whose next use is furthest away, bypassing the fill when the
  incoming line is at least that far (``allow_bypass``).

Table IV: GHRP 3 x 4096-entry tables, 2-bit counters, 16-bit signature
and history (4.06 KB); Hawkeye 64-entry occupancy vectors, an
8K-entry predictor, 3-bit counters and 3-bit RRIP.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.common.bitops import fold_hash, mask
from repro.mem.oracle import NEVER, NextUseOracle
from repro.mem.policies.base import ReplacementPolicy

_TABLE_HASH_SALTS = (0x1F3D, 0x7A21, 0x42C9)


class GHRPPolicy(ReplacementPolicy):
    """Dead-block-predicting replacement for the L1 i-cache."""

    name = "ghrp"

    def __init__(
        self,
        table_entries: int = 4096,
        counter_bits: int = 2,
        signature_bits: int = 16,
        history_bits: int = 16,
        dead_threshold: int = 6,
    ) -> None:
        self.table_bits = table_entries.bit_length() - 1
        if (1 << self.table_bits) != table_entries:
            raise ValueError(f"table_entries must be a power of two: {table_entries}")
        self.counter_max = mask(counter_bits)
        self.signature_bits = signature_bits
        self.history_bits = history_bits
        self.dead_threshold = dead_threshold
        self.tables = [[0] * table_entries for _ in _TABLE_HASH_SALTS]
        self.ghr = 0
        # Per-line state captured at the last touch: table indices used
        # for training, plus a "touched since fill/last training" flag.
        self._line_indices: Dict[int, Tuple[int, int, int]] = {}
        # Hashing memos.  Both hashes are pure functions of their key —
        # region for the signature, (signature, GHR) for the table
        # indices — and instruction streams revisit the same few
        # thousand keys constantly (~90% hit rate on the datacenter
        # traces), so caching them removes most per-access fold_hash
        # work without changing a single table update.
        self._sig_memo: Dict[int, int] = {}
        self._indices_memo: Dict[int, Tuple[int, int, int]] = {}

    # -- hashing -------------------------------------------------------------

    #: Region granularity (log2 blocks) for signatures.  GHRP forms its
    #: signature from instruction-address bits; dropping the low block
    #: bits groups neighbouring blocks (code regions) so dead-on-arrival
    #: cold paths — contiguous in the address space — share history, the
    #: same structural property ACIC's partial tags exploit.
    REGION_SHIFT = 4

    #: Memo growth guard for pathological streams; recomputation is
    #: pure, so clearing never changes behaviour.
    _MEMO_CAP = 1 << 20

    def _signature(self, block: int) -> int:
        region = block >> self.REGION_SHIFT
        sig = self._sig_memo.get(region)
        if sig is None:
            sig = fold_hash(region, self.signature_bits)
            if len(self._sig_memo) >= self._MEMO_CAP:
                self._sig_memo.clear()
            self._sig_memo[region] = sig
        return sig

    def _indices(self, signature: int) -> Tuple[int, int, int]:
        mixed = (signature << self.history_bits) | self.ghr
        indices = self._indices_memo.get(mixed)
        if indices is None:
            bits = self.table_bits
            s1, s2, s3 = _TABLE_HASH_SALTS
            indices = (
                fold_hash(mixed ^ s1, bits),
                fold_hash(mixed ^ s2, bits),
                fold_hash(mixed ^ s3, bits),
            )
            if len(self._indices_memo) >= self._MEMO_CAP:
                self._indices_memo.clear()
            self._indices_memo[mixed] = indices
        return indices

    def _push_history(self, signature: int) -> None:
        self.ghr = ((self.ghr << 4) ^ signature) & mask(self.history_bits)

    # -- prediction / training ------------------------------------------------

    def _predict_dead(self, indices: Tuple[int, int, int]) -> bool:
        total = sum(table[idx] for table, idx in zip(self.tables, indices))
        return total >= self.dead_threshold

    def _train(self, indices: Tuple[int, int, int], dead: bool) -> None:
        for table, idx in zip(self.tables, indices):
            value = table[idx]
            if dead:
                if value < self.counter_max:
                    table[idx] = value + 1
            elif value > 0:
                table[idx] = value - 1

    def _touch(self, block: int) -> None:
        previous = self._line_indices.get(block)
        if previous is not None:
            self._train(previous, dead=False)  # it was reused: live
        signature = self._signature(block)
        self._push_history(signature)
        self._line_indices[block] = self._indices(signature)

    # -- ReplacementPolicy interface -------------------------------------------

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        self._touch(block)

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        for block in resident:  # LRU -> MRU: prefer the stalest dead line
            indices = self._line_indices.get(block)
            if indices is not None and self._predict_dead(indices):
                return block
        return next(iter(resident))

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        signature = self._signature(block)
        self._push_history(signature)
        self._line_indices[block] = self._indices(signature)

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        indices = self._line_indices.pop(block, None)
        if indices is not None:
            self._train(indices, dead=True)


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
