"""Fused GHRP hot path: the registry's production ghrp scheme.

:class:`FlatGHRPScheme` is behaviourally identical to
``PlainCacheScheme(config, GHRPPolicy())`` — same tables, same GHR
evolution, same victims, same stats — but the per-record work is fused
into single ``lookup``/``fill`` bodies with no intermediate dispatch:

* the demand-hit path is the set dict's pop/reinsert with the policy's
  ``_touch`` (live training, history push, index capture) inlined;
* ``repeat_hits`` (the engine's batched repeat-block hits) trains in
  closed form: repeated pushes of one signature drive the GHR to a
  fixed point within ``history_bits / 4`` steps, so it steps literally
  until the GHR stops moving, then bulk-decrements the three counters
  every remaining repeat would decrement;
* the per-line captured table indices live as the *payload* of each
  line in the set dicts, so the hit path's pop/reinsert doubles as the
  index read/update and ``GHRPPolicy._line_indices`` needs no per-access
  maintenance (it is materialised from the line payloads at the
  ``save_state`` boundary and merged back on ``load_state``);
* the GHR and the cache stats counters accumulate in closure cells and
  are flushed into the authoritative policy/stats objects at the state
  boundaries (``save_state``, the engine's ``finish_trace`` hook);
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

The wrapped :class:`~repro.mem.policies.ghrp.GHRPPolicy` and
:class:`~repro.mem.cache.SetAssociativeCache` remain the authoritative
state containers at every ``save_state``/``load_state`` boundary — the
snapshot keeps the exact ``PlainCacheScheme`` shape (line payloads
``None``, ``_line_indices`` populated, counters flushed) so checkpoints
interchange between the twins.  ``ghrp.py`` stays the readable
reference; ``tests/test_policy_differential.py`` locks this
implementation to it op-by-op and, through the registry-level twin
swap in ``tests/reference``, on the 20k grid.
"""

from __future__ import annotations

from typing import Optional

from repro.common.bitops import _GOLDEN64, _MASK64, mask
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.ghrp import _TABLE_HASH_SALTS, GHRPPolicy

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()


class FlatGHRPScheme:
    """GHRP-replaced L1i on a fused hot path (fast twin)."""

    name = "ghrp"

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        policy: Optional[GHRPPolicy] = None,
    ) -> None:
        self.config = config or CacheConfig(32 * 1024, 8, name="L1i")
        self.policy = policy or GHRPPolicy()
        if len(self.policy.tables) != 3:
            raise ValueError("FlatGHRPScheme requires the 3-table GHRP")
        self.icache = SetAssociativeCache(self.config, self.policy)
        # The live per-set dicts (mutated in place by load_state, so
        # this list stays valid for the scheme's lifetime).
        self._lines_by_set = self.icache.line_dicts()
        # Pre-pass views (bound by prepare_trace, valid for demand
        # records only: record t accesses trace.blocks[t]).
        self._sig_of_t = None
        self._set_of_t = None
        self._bind()

    # -- pre-pass ------------------------------------------------------------

    def prepare_trace(self, trace) -> None:
        """Bind per-record signature/set arrays for ``trace`` (engine hook).

        Pure binding — no simulated state changes — so calling it again
        (every chunk of a checkpointed run) is idempotent.  Skipped when
        the pre-pass geometry doesn't match this instance; the memo-hash
        fallback then computes identical values.
        """
        from repro.mem.prepass import cached_replacement_prepass

        pre = cached_replacement_prepass(trace)
        pol = self.policy
        if (
            pre.ghrp_region_shift == pol.REGION_SHIFT
            and pre.ghrp_sig_bits == pol.signature_bits
            and pre.set_bits == self.config.set_index_bits
        ):
            self._sig_of_t = pre.ghrp_sig_list
            self._set_of_t = pre.set_index_list
            self._bind()

    # -- L1I scheme protocol (fused hot path) --------------------------------

    def _bind(self) -> None:
        """Close the protocol methods over the hot containers.

        ``GHRPPolicy.load_state`` *replaces* the table lists
        (``load_attrs`` semantics), which is why this runs after every
        ``load_state``.  Re-binding first flushes any counters deferred
        by the previous closures.
        """
        flush_prev = self.__dict__.get("_flush")
        if flush_prev is not None:
            flush_prev()

        pol = self.policy
        stats = self.icache.stats
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask
        ways = self.config.ways
        t0, t1, t2 = pol.tables
        sig_memo = pol._sig_memo
        indices_memo = pol._indices_memo
        region_shift = pol.REGION_SHIFT
        sig_shift = 64 - pol.signature_bits
        table_shift = 64 - pol.table_bits
        hist_bits = pol.history_bits
        hist_mask = mask(hist_bits)
        dead_threshold = pol.dead_threshold
        counter_max = pol.counter_max
        memo_cap = pol._MEMO_CAP
        s1, s2, s3 = _TABLE_HASH_SALTS
        sig_of_t = self._sig_of_t
        set_of_t = self._set_of_t

        # Deferred state: the GHR and the five touched counters live in
        # closure cells between flushes (nothing reads the authoritative
        # copies mid-run; every state boundary flushes).
        ghr = pol.ghr
        acc = hits = evicts = dfills = pfills = 0

        def flush():
            nonlocal acc, hits, evicts, dfills, pfills
            pol.ghr = ghr
            stats.demand_accesses += acc
            stats.demand_hits += hits
            stats.evictions += evicts
            stats.demand_fills += dfills
            stats.prefetch_fills += pfills
            acc = hits = evicts = dfills = pfills = 0

        def drop():
            # Forget deferred deltas (load replaces the counters and
            # the GHR): kill this binding's flush so the rebind
            # preamble cannot write stale values over the loaded state.
            nonlocal acc, hits, evicts, dfills, pfills
            acc = hits = evicts = dfills = pfills = 0
            self.__dict__.pop("_flush", None)

        def hash_sig(block):
            # Inline twin of GHRPPolicy._signature (same memo).
            region = block >> region_shift
            sig = sig_memo.get(region)
            if sig is None:
                sig = ((region * _GOLDEN64) & _MASK64) >> sig_shift
                if len(sig_memo) >= memo_cap:
                    sig_memo.clear()
                sig_memo[region] = sig
            return sig

        def hash_indices(mixed):
            # Inline twin of GHRPPolicy._indices' miss path (same memo).
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
            # Inlined GHRPPolicy._touch: the popped payload *is* the
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
        self._drop = drop

    def finish_trace(self) -> None:
        """Engine end-of-run hook: flush deferred counters/GHR."""
        self._flush()

    # -- checkpoint/resume ---------------------------------------------------
    #
    # State shape matches PlainCacheScheme exactly ({"icache": ...}), so
    # checkpoints interchange between this twin and the readable scheme:
    # save_state materialises _line_indices from the line payloads and
    # normalises the payloads back to the reference None; load_state
    # merges the loaded _line_indices into the payloads.

    def save_state(self) -> dict:
        self._flush()
        line_idx = self.policy._line_indices
        line_idx.clear()
        for lines in self._lines_by_set:
            for block, indices in lines.items():
                if indices is not None:
                    line_idx[block] = indices
        state = {"icache": self.icache.save_state()}
        icache_state = state["icache"]
        icache_state["sets"] = [
            dict.fromkeys(lines) for lines in icache_state["sets"]
        ]
        return state

    def load_state(self, state: dict) -> None:
        self._drop()
        self.icache.load_state(state["icache"])
        line_idx = self.policy._line_indices
        for lines in self._lines_by_set:
            for block in lines:
                lines[block] = line_idx.get(block)
        self._bind()
