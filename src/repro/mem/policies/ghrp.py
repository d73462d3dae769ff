"""GHRP: Global History Reuse Predictor replacement (Ajorpaz et al., ISCA'18).

GHRP predicts *dead* i-cache blocks from the global history of recent
access signatures, in the style of sampling dead-block predictors but
specialised for the instruction stream:

* every access computes a 16-bit signature from the block address;
* a 16-bit global history register (GHR) mixes in recent signatures;
* three 4096-entry tables of 2-bit counters, indexed by three different
  hashes of (signature, GHR), vote on deadness;
* the victim is the predicted-dead line nearest LRU, falling back to
  plain LRU when no line is predicted dead.

Training: a line touched again is trained *live* through the indices
captured at its previous touch; a line evicted without an intervening
touch is trained *dead* through the same captured indices.

Table IV configuration: 3 x 4096-entry tables, 2-bit counters, 16-bit
signature, 16-bit history register -> 4.06 KB.
"""

from __future__ import annotations

from typing import Dict, Optional, Iterable, Tuple

from repro.common.bitops import fold_hash, mask
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

    # The hash memos are pure caches (recomputation is invisible), so
    # they stay out of the snapshot rather than bloating checkpoints.
    _STATE_ATTRS = ("tables", "ghr", "_line_indices")

    def save_state(self) -> dict:
        from repro.common.state import save_attrs

        return save_attrs(self, self._STATE_ATTRS)

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs

        load_attrs(self, state, self._STATE_ATTRS)
