"""GHRP: Global History Reuse Predictor replacement (Ajorpaz et al., ISCA'18).

GHRP predicts *dead* i-cache blocks from the global history of recent
access signatures:

* every access signs its block's 16-block code region with 16 bits;
* a 16-bit global history register (GHR) mixes in recent signatures;
* three 4096-entry tables of 2-bit counters, indexed by three different
  hashes of (signature, GHR), vote on deadness;
* the victim is the predicted-dead line nearest LRU, falling back to
  plain LRU when no line is predicted dead (GHRP never bypasses).

Training: a line touched again is trained *live* through the indices
captured at its previous touch; a line evicted without an intervening
touch is trained *dead* through the same captured indices.

Table IV configuration: 3 x 4096-entry tables, 2-bit counters, 16-bit
signature, 16-bit history register -> 4.06 KB.

:class:`FlatGHRPScheme` is the registry's ``ghrp`` scheme, with the
per-record work fused into single ``lookup``/``fill`` bodies:

* the demand-hit path is the set dict's pop/reinsert with the touch
  (live training, history push, index capture) inlined;
* ``repeat_hits`` (the engine's batched repeat-block hits) trains in
  closed form: repeated pushes of one signature drive the GHR to a
  fixed point within ``HISTORY_BITS / 4`` steps, so it steps literally
  until the GHR stops moving, then bulk-decrements the three counters
  every remaining repeat would decrement;
* the per-line captured table indices live as the *payload* of each
  line in the set dicts, so the hit path's pop/reinsert doubles as the
  index read/update;
* the GHR and the cache stats counters accumulate in closure cells and
  are flushed into ``self.ghr`` and ``icache.stats`` by the engine's
  ``finish_trace`` hook and by a pickle
  (:class:`~repro.mem.policies.base.BoundHotPath`);
* the fold-hash signature and table-index computations are inlined with
  their bounded memos, or skipped entirely when a
  :class:`~repro.mem.prepass.ReplacementPrepass` is bound (the engine
  calls :meth:`prepare_trace`; demand records then read precomputed
  per-record signatures and set indices, prefetch fills keep the memo
  path since their blocks are arbitrary);
* :meth:`_bind` closes the protocol methods over every container and
  constant they touch (``self.lookup`` shadows the class), choosing
  pre-pass or memo-hash specialisations at bind time so the per-record
  bodies carry no dead branches.

The readable ``GHRPPolicy`` lives in ``tests/reference/policies.py``;
``tests/test_policy_differential.py`` locks this implementation to it
op-by-op (through a test-side projection into the ``PlainCacheScheme``
shape) and, through the registry-level twin swap in
``tests/reference``, on the 20k grid.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.common.bitops import _GOLDEN64, _MASK64, mask
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.base import BoundHotPath
from repro.mem.policies.lru import LRUPolicy
from repro.mem.prepass import (
    GHRP_REGION_SHIFT,
    GHRP_SIG_BITS,
    cached_replacement_prepass,
)

#: Table IV: three 4096-entry tables of 2-bit counters, a 16-bit GHR;
#: a line is predicted dead when its three counters sum to 6 or more.
TABLE_BITS = 12
COUNTER_MAX = 3
HISTORY_BITS = 16
DEAD_THRESHOLD = 6
_TABLE_HASH_SALTS = (0x1F3D, 0x7A21, 0x42C9)

#: Memo growth guard for pathological streams; recomputation is pure,
#: so clearing never changes behaviour.
_MEMO_CAP = 1 << 20

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()


class FlatGHRPScheme(BoundHotPath):
    """GHRP-replaced L1i on a fused hot path (fast twin)."""

    name = "ghrp"

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig(32 * 1024, 8, name="L1i")
        # The cache is the line container and stats holder only; its
        # LRU policy is never called.
        self.icache = SetAssociativeCache(self.config, LRUPolicy())
        # The live per-set dicts (one list for the scheme's lifetime).
        self._lines_by_set = self.icache.line_dicts()
        self.tables = [[0] * (1 << TABLE_BITS) for _ in _TABLE_HASH_SALTS]
        self.ghr = 0
        # Hashing memos.  Both hashes are pure functions of their key —
        # region for the signature, (signature, GHR) for the table
        # indices — and instruction streams revisit the same few
        # thousand keys constantly, so caching them removes most
        # per-access hashing without changing a single table update.
        self._sig_memo = {}
        self._indices_memo = {}
        self._bind()

    # -- pre-pass ------------------------------------------------------------

    def prepare_trace(self, trace) -> None:
        """Bind per-record signature/set arrays for ``trace`` (engine hook).

        Pure binding — no simulated state changes — so calling it again
        (on every resumed run) is idempotent.  Skipped when
        the pre-pass geometry doesn't match this instance; the memo-hash
        fallback then computes identical values.
        """
        pre = cached_replacement_prepass(trace)
        if pre.set_bits == self.config.set_index_bits:
            self._sig_of_t = pre.ghrp_sig_list
            self._set_of_t = pre.set_index_list
            self._bind()

    # -- L1I scheme protocol (fused hot path) --------------------------------

    def _bind(self) -> None:
        """Close the protocol methods over the hot containers.

        Runs at construction, when ``prepare_trace`` binds the pre-pass
        and when a pickle loads.  Re-binding first flushes any counters
        deferred by the previous closures.
        """
        flush_prev = self.__dict__.get("_flush")
        if flush_prev is not None:
            flush_prev()

        stats = self.icache.stats
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask
        ways = self.config.ways
        t0, t1, t2 = self.tables
        sig_memo = self._sig_memo
        indices_memo = self._indices_memo
        region_shift = GHRP_REGION_SHIFT
        sig_shift = 64 - GHRP_SIG_BITS
        table_shift = 64 - TABLE_BITS
        hist_bits = HISTORY_BITS
        hist_mask = mask(hist_bits)
        dead_threshold = DEAD_THRESHOLD
        counter_max = COUNTER_MAX
        memo_cap = _MEMO_CAP
        s1, s2, s3 = _TABLE_HASH_SALTS
        sig_of_t = self._sig_of_t
        set_of_t = self._set_of_t

        # Deferred state: the GHR and the five touched counters live in
        # closure cells between flushes (nothing reads the scheme/stats
        # copies mid-run; ``finish_trace`` and a pickle flush them).  The
        # GHR goes back through a weak reference: a closure over ``self``
        # would make every scheme a reference cycle.
        ghr = self.ghr
        owner = weakref.ref(self)
        acc = hits = evicts = dfills = pfills = 0

        def flush():
            nonlocal acc, hits, evicts, dfills, pfills
            owner().ghr = ghr
            stats.demand_accesses += acc
            stats.demand_hits += hits
            stats.evictions += evicts
            stats.demand_fills += dfills
            stats.prefetch_fills += pfills
            acc = hits = evicts = dfills = pfills = 0

        def hash_sig(block):
            # fold_hash of the block's region, through the bounded memo.
            region = block >> region_shift
            sig = sig_memo.get(region)
            if sig is None:
                sig = ((region * _GOLDEN64) & _MASK64) >> sig_shift
                if len(sig_memo) >= memo_cap:
                    sig_memo.clear()
                sig_memo[region] = sig
            return sig

        def hash_indices(mixed):
            # The three salted fold_hash table indices (a memo miss).
            indices = (
                (((mixed ^ s1) * _GOLDEN64) & _MASK64) >> table_shift,
                (((mixed ^ s2) * _GOLDEN64) & _MASK64) >> table_shift,
                (((mixed ^ s3) * _GOLDEN64) & _MASK64) >> table_shift,
            )
            if len(indices_memo) >= memo_cap:
                indices_memo.clear()
            indices_memo[mixed] = indices
            return indices

        def lookup(block, t, cycle):
            nonlocal acc, hits, ghr
            acc += 1
            if set_of_t is None:
                lines = lines_by_set[block & set_mask]
            else:
                lines = lines_by_set[set_of_t[t]]
            previous = lines.pop(block, _ABSENT)
            if previous is _ABSENT:
                return False
            hits += 1
            # The touch, inlined: the popped payload *is* the
            # line's captured table indices — train them live...
            if previous is not None:
                i0, i1, i2 = previous
                v = t0[i0]
                if v:
                    t0[i0] = v - 1
                v = t1[i1]
                if v:
                    t1[i1] = v - 1
                v = t2[i2]
                if v:
                    t2[i2] = v - 1
            # ...push the signature into the GHR, reinsert at MRU with
            # the freshly captured indices as the new payload.
            sig = sig_of_t[t] if sig_of_t is not None else hash_sig(block)
            g = ((ghr << 4) ^ sig) & hist_mask
            ghr = g
            mixed = (sig << hist_bits) | g
            indices = indices_memo.get(mixed)
            if indices is None:
                indices = hash_indices(mixed)
            lines[block] = indices
            return True

        def repeat_hits(block, count, last_t):
            # `count` more hits on the MRU block, in closed form.  Each
            # one trains the payload's counters, pushes the same
            # signature and re-captures the indices.  Pushing one
            # signature drives the GHR to a fixed point within
            # history_bits / 4 steps: step literally until it stops
            # moving, then the rest all decrement the same counters.
            nonlocal acc, hits, ghr
            acc += count
            hits += count
            lines = lines_by_set[block & set_mask]
            indices = lines[block]
            sig = sig_of_t[last_t] if sig_of_t is not None else hash_sig(block)
            g = ghr
            while count:
                i0, i1, i2 = indices
                v = t0[i0]
                if v:
                    t0[i0] = v - 1
                v = t1[i1]
                if v:
                    t1[i1] = v - 1
                v = t2[i2]
                if v:
                    t2[i2] = v - 1
                count -= 1
                ng = ((g << 4) ^ sig) & hist_mask
                if ng == g:
                    break
                g = ng
                mixed = (sig << hist_bits) | g
                indices = indices_memo.get(mixed)
                if indices is None:
                    indices = hash_indices(mixed)
            if count:
                i0, i1, i2 = indices
                v = t0[i0]
                t0[i0] = v - count if v > count else 0
                v = t1[i1]
                t1[i1] = v - count if v > count else 0
                v = t2[i2]
                t2[i2] = v - count if v > count else 0
            ghr = g
            lines[block] = indices

        def _fill(lines, block, sig, prefetch):
            # Shared tail of both fill flavours; `sig` already resolved.
            nonlocal ghr, evicts, dfills, pfills
            old = lines.pop(block, _ABSENT)
            if old is not _ABSENT:
                # Racing prefetch/demand fill: just refresh recency.
                lines[block] = old
                return
            if len(lines) >= ways:
                # Victim scan, LRU -> MRU: the stalest predicted-dead
                # line, falling back to plain LRU (GHRP never bypasses).
                victim = vidx = None
                for b, idx in lines.items():
                    if (
                        idx is not None
                        and t0[idx[0]] + t1[idx[1]] + t2[idx[2]]
                        >= dead_threshold
                    ):
                        victim = b
                        vidx = idx
                        break
                if victim is None:
                    victim, vidx = next(iter(lines.items()))
                del lines[victim]
                # Inlined on_evict: it left without a re-touch — train dead.
                if vidx is not None:
                    v = t0[vidx[0]]
                    if v < counter_max:
                        t0[vidx[0]] = v + 1
                    v = t1[vidx[1]]
                    if v < counter_max:
                        t1[vidx[1]] = v + 1
                    v = t2[vidx[2]]
                    if v < counter_max:
                        t2[vidx[2]] = v + 1
                evicts += 1
            # Inlined on_fill: history push + fresh indices as payload
            # (no live training).
            g = ((ghr << 4) ^ sig) & hist_mask
            ghr = g
            mixed = (sig << hist_bits) | g
            indices = indices_memo.get(mixed)
            if indices is None:
                indices = hash_indices(mixed)
            lines[block] = indices
            if prefetch:
                pfills += 1
            else:
                dfills += 1

        def fill(block, t, cycle):
            if set_of_t is None:
                lines = lines_by_set[block & set_mask]
                sig = hash_sig(block)
            else:
                lines = lines_by_set[set_of_t[t]]
                sig = sig_of_t[t]
            _fill(lines, block, sig, False)

        def prefetch_fill(block, t, cycle):
            # Prefetch blocks are arbitrary: never index the pre-pass.
            _fill(
                lines_by_set[block & set_mask], block, hash_sig(block), True
            )

        def contains(block):
            return block in lines_by_set[block & set_mask]

        self.lookup = lookup
        self.repeat_hits = repeat_hits
        self.fill = fill
        self.prefetch_fill = prefetch_fill
        self.contains = contains
        self._flush = flush

    def finish_trace(self) -> None:
        """Engine end-of-run hook: flush deferred counters/GHR."""
        self._flush()
