"""Fused Hawkeye/Harmony hot path: the registry's production harmony scheme.

:class:`FlatHawkeyeScheme` is behaviourally identical to
``PlainCacheScheme(config, HawkeyePolicy(ways=...))`` — same OPTgen
verdicts, same predictor counters, same RRIP ageing, same victims —
with the per-record work fused into single ``lookup``/``fill`` bodies:

* the demand-hit path inlines ``_observe`` (sampler pop, OPT-hit
  verdict, predictor training, quantum advance, sampler prune) and the
  RRIP install;
* ``repeat_hits`` (the engine's batched repeat-block hits) is O(1):
  the hit before the run stamped the block with the set's current
  quantum, so every repeat sees an empty interval, and the run
  saturating-adds ``count`` to the block's predictor counter, advances
  the quantum by ``count``, clears the ``min(count, window)`` lanes it
  opens in one mask, and restamps the block and its RRPV once;
* each line's RRPV lives as the *payload* of its entry in the set
  dicts, so the hit path's pop/reinsert doubles as the RRIP install and
  the victim scans read payloads instead of probing a side dict
  (``HawkeyePolicy._rrpv`` is never kept);
* each set's OPTgen is two slots in flat per-set lists — the quantum
  counter and the occupancy vector packed as 8-bit lanes of one int.
  Lanes never exceed ``capacity``, so with ``capacity < 128`` adding
  ``128 - capacity`` to every lane of a usage interval sets bit 7
  exactly in the full lanes: one add and one mask answer "any quantum
  full?" and a single add charges the interval (the policy's
  ``_OPTgen`` objects are never built);
* the per-set sampler dicts are shared with the authoritative
  ``HawkeyePolicy._history`` (created through both at once) and also
  indexed by a flat list;
* the cache stats counters accumulate in closure cells, flushed by the
  engine's ``finish_trace`` hook and by a pickle
  (:class:`~repro.mem.policies.base.BoundHotPath`);
* signatures come from the bounded fold-hash memo, or from a bound
  :class:`~repro.mem.prepass.ReplacementPrepass` on demand records
  (prefetch fills keep the memo path — their blocks are arbitrary);
* :meth:`_bind` closes the protocol methods over every container and
  constant they touch (``self.lookup`` shadows the class), choosing
  pre-pass or memo-hash specialisations at bind time.

``hawkeye.py`` stays the readable reference;
``tests/test_policy_differential.py`` locks this implementation to it
op-by-op (through a test-side projection into the ``PlainCacheScheme``
shape, which unpacks the occupancy lanes into ``_OPTgen`` objects) and,
through the registry-level twin swap in ``tests/reference``, on the
20k grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.bitops import _GOLDEN64, _MASK64, mask
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.base import BoundHotPath
from repro.mem.policies.hawkeye import HawkeyePolicy

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()

#: Per-window lane tables: ones[L] has the low bit of L consecutive
#: lanes set; clears[lane] masks one lane to zero.  Shared across all
#: FlatHawkeyeScheme instances of a window size.
_LANE_TABLES: Dict[int, Tuple[list, list]] = {}


def _lane_tables(window: int) -> Tuple[list, list]:
    tables = _LANE_TABLES.get(window)
    if tables is None:
        ones = [0] * (window + 1)
        for length in range(1, window + 1):
            ones[length] = ones[length - 1] | (1 << ((length - 1) << 3))
        clears = [~(0xFF << (lane << 3)) for lane in range(window)]
        tables = (ones, clears)
        _LANE_TABLES[window] = tables
    return tables


class FlatHawkeyeScheme(BoundHotPath):
    """Hawkeye/Harmony-replaced L1i on a fused hot path (fast twin)."""

    name = "harmony"

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        policy: Optional[HawkeyePolicy] = None,
    ) -> None:
        self.config = config or CacheConfig(32 * 1024, 8, name="L1i")
        self.policy = policy or HawkeyePolicy(ways=self.config.ways)
        if not 0 < self.policy.ways < 128:
            raise ValueError(
                "the packed occupancy vector requires 0 < policy.ways < 128"
            )
        self.icache = SetAssociativeCache(self.config, self.policy)
        # The live per-set dicts (one list for the scheme's lifetime).
        self._lines_by_set = self.icache.line_dicts()
        # Flat per-set OPTgen/sampler views.  opt_time[s] is None until
        # set s observes its first access (mirrors the reference's lazy
        # _OPTgen creation); each sampler dict is shared with the
        # policy's ``_history``.
        num_sets = self.config.num_sets
        self._opt_time: List[Optional[int]] = [None] * num_sets
        self._opt_occ: List[int] = [0] * num_sets
        self._hist_by_set: List[Optional[dict]] = [None] * num_sets
        self._bind()

    # -- pre-pass ------------------------------------------------------------

    def prepare_trace(self, trace) -> None:
        """Bind per-record signature/set arrays for ``trace`` (engine hook).

        Pure binding — no simulated state changes — so calling it again
        (on every resumed run) is idempotent.  Skipped when
        the pre-pass geometry doesn't match this instance; the memo-hash
        fallback then computes identical values.
        """
        from repro.mem.prepass import cached_replacement_prepass

        pre = cached_replacement_prepass(trace)
        if (
            pre.hawkeye_sig_bits == self.policy.predictor_bits
            and pre.set_bits == self.config.set_index_bits
        ):
            self._sig_of_t = pre.hawkeye_sig_list
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

        pol = self.policy
        stats = self.icache.stats
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask
        ways = self.config.ways
        pred = pol.predictor
        pol_history = pol._history
        sig_line = pol._sig_of_line
        sig_memo = pol._sig_memo
        sig_bits = pol.predictor_bits
        sig_mask = mask(sig_bits)
        sig_shift = 64 - sig_bits
        cmax = pol.counter_max
        mid = pol.counter_mid
        rmax = pol.rrip_max
        window = pol.vector_entries
        pad = 128 - pol.ways
        hist_cap = 8 * window
        ones_table, clears = _lane_tables(window)
        memo_cap = pol._MEMO_CAP
        opt_time = self._opt_time
        opt_occ = self._opt_occ
        hist_by_set = self._hist_by_set
        sig_of_t = self._sig_of_t
        set_of_t = self._set_of_t

        # Deferred counters: flushed into the stats object by
        # ``finish_trace`` and a pickle (nothing reads it mid-run).
        acc = hits = evicts = dfills = pfills = 0

        def flush():
            nonlocal acc, hits, evicts, dfills, pfills
            stats.demand_accesses += acc
            stats.demand_hits += hits
            stats.evictions += evicts
            stats.demand_fills += dfills
            stats.prefetch_fills += pfills
            acc = hits = evicts = dfills = pfills = 0

        def hash_sig(block):
            # Inline twin of HawkeyePolicy._signature (same memo).
            sig = sig_memo.get(block)
            if sig is None:
                sig = ((block * _GOLDEN64) & _MASK64) >> sig_shift
                if len(sig_memo) >= memo_cap:
                    sig_memo.clear()
                sig_memo[block] = sig
            return sig

        def observe(s, block, sig):
            # Twin of HawkeyePolicy._observe (the lookup path inlines
            # this body; the rarer demand-fill path calls it).
            gen_time = opt_time[s]
            if gen_time is None:
                gen_time = 0
                opt_occ[s] = 0
                history = {}
                hist_by_set[s] = history
                pol_history[s] = history  # shared with the policy
            else:
                history = hist_by_set[s]
            previous = history.get(block)
            if previous is not None:
                last_time = previous >> sig_bits
                length = gen_time - last_time
                last_sig = previous & sig_mask
                v = pred[last_sig]
                if length >= window:
                    # Interval outlived the vector: never an OPT hit.
                    if v:
                        pred[last_sig] = v - 1
                elif length == 0:
                    # Empty interval: trivially uncontended.
                    if v < cmax:
                        pred[last_sig] = v + 1
                else:
                    start = last_time % window
                    if start + length <= window:
                        ones = ones_table[length] << (start << 3)
                    else:
                        head = window - start
                        ones = (
                            ones_table[head] << (start << 3)
                        ) | ones_table[length - head]
                    occ = opt_occ[s]
                    if (occ + ones * pad) & (ones << 7):
                        if v:
                            pred[last_sig] = v - 1
                    else:
                        opt_occ[s] = occ + ones
                        if v < cmax:
                            pred[last_sig] = v + 1
            now = gen_time + 1
            opt_time[s] = now
            occ = opt_occ[s]
            if occ:
                # Open quantum `now`: clear its (reused) lane.  An
                # all-zero vector — the common case, intervals charge
                # rarely — needs no clearing.
                opt_occ[s] = occ & clears[now % window]
            history[block] = (now << sig_bits) | sig
            if previous is None and len(history) > hist_cap:
                # Only a new-key store can push past the cap: a prune
                # leaves at most `window` live entries (stored quanta
                # are unique per set), so overwrites can't overflow.
                horizon = (now - window + 1) << sig_bits
                for b in [
                    b for b, packed in history.items() if packed < horizon
                ]:
                    del history[b]

        def lookup(block, t, cycle):
            nonlocal acc, hits
            acc += 1
            if set_of_t is None:
                s = block & set_mask
            else:
                s = set_of_t[t]
            lines = lines_by_set[s]
            if lines.pop(block, _ABSENT) is _ABSENT:
                return False
            hits += 1
            sig = sig_of_t[t] if sig_of_t is not None else hash_sig(block)
            # Inlined observe: sampler pop -> OPT verdict -> train ->
            # advance -> sampler store/prune.
            gen_time = opt_time[s]
            if gen_time is None:
                gen_time = 0
                opt_occ[s] = 0
                history = {}
                hist_by_set[s] = history
                pol_history[s] = history
            else:
                history = hist_by_set[s]
            previous = history.get(block)
            if previous is not None:
                last_time = previous >> sig_bits
                length = gen_time - last_time
                last_sig = previous & sig_mask
                v = pred[last_sig]
                if length >= window:
                    if v:
                        pred[last_sig] = v - 1
                elif length == 0:
                    if v < cmax:
                        pred[last_sig] = v + 1
                else:
                    start = last_time % window
                    if start + length <= window:
                        ones = ones_table[length] << (start << 3)
                    else:
                        head = window - start
                        ones = (
                            ones_table[head] << (start << 3)
                        ) | ones_table[length - head]
                    occ = opt_occ[s]
                    if (occ + ones * pad) & (ones << 7):
                        if v:
                            pred[last_sig] = v - 1
                    else:
                        opt_occ[s] = occ + ones
                        if v < cmax:
                            pred[last_sig] = v + 1
            now = gen_time + 1
            opt_time[s] = now
            occ = opt_occ[s]
            if occ:
                opt_occ[s] = occ & clears[now % window]
            history[block] = (now << sig_bits) | sig
            if previous is None and len(history) > hist_cap:
                # New-key stores only: see observe() for why overwrites
                # can't overflow the cap.
                horizon = (now - window + 1) << sig_bits
                for b in [
                    b for b, packed in history.items() if packed < horizon
                ]:
                    del history[b]
            # Inlined on_hit tail: the MRU reinsert doubles as the RRIP
            # install (payload = RRPV by predicted friendliness).
            lines[block] = 0 if pred[sig] >= mid else rmax
            return True

        def repeat_hits(block, count, last_t):
            # `count` more hits on the MRU block, in closed form.  The
            # hit before the run stamped the block with the set's
            # current quantum, so every repeat sees an empty interval:
            # it trains its own signature up, opens (and clears) the
            # next quantum's lane and restamps the block.
            nonlocal acc, hits
            acc += count
            hits += count
            s = block & set_mask
            history = hist_by_set[s]
            stamp = history[block]
            sig = stamp & sig_mask
            gen_time = stamp >> sig_bits
            v = pred[sig]
            if v < cmax:
                v = v + count if v + count < cmax else cmax
                pred[sig] = v
            now = gen_time + count
            opt_time[s] = now
            occ = opt_occ[s]
            if occ:
                if count >= window:
                    opt_occ[s] = 0
                else:
                    # Lanes gen_time+1 .. now, wrapping at the window.
                    start = (gen_time + 1) % window
                    if start + count <= window:
                        ones = ones_table[count] << (start << 3)
                    else:
                        head = window - start
                        ones = (
                            ones_table[head] << (start << 3)
                        ) | ones_table[count - head]
                    opt_occ[s] = occ & ~(ones * 0xFF)
            history[block] = (now << sig_bits) | sig
            lines_by_set[s][block] = 0 if v >= mid else rmax

        def _evict(lines):
            # Victim scan over the payloads: first cache-averse line
            # LRU -> MRU, else the worst-RRPV line with Hawkeye's
            # corrective detraining.  Inlines on_evict.
            nonlocal evicts
            victim = None
            for b, rrpv in lines.items():
                if rrpv >= rmax:
                    victim = b
                    break
            if victim is None:
                victim = next(iter(lines))
                worst = -1
                for b, rrpv in lines.items():
                    if rrpv > worst:
                        worst = rrpv
                        victim = b
                victim_sig = sig_line.get(victim)
                if victim_sig is not None:
                    v = pred[victim_sig]
                    if v:
                        pred[victim_sig] = v - 1
            del lines[victim]
            sig_line.pop(victim, None)
            evicts += 1

        def fill(block, t, cycle):
            nonlocal dfills
            if set_of_t is None:
                s = block & set_mask
                sig = None
            else:
                s = set_of_t[t]
                sig = sig_of_t[t]
            lines = lines_by_set[s]
            old = lines.pop(block, _ABSENT)
            if old is not _ABSENT:
                # Racing prefetch/demand fill: just refresh recency.
                lines[block] = old
                return
            if len(lines) >= ways:
                _evict(lines)
            if sig is None:
                sig = hash_sig(block)
            # Inlined on_fill, demand flavour: observe, then insert
            # friendly lines at RRPV 0 after ageing the set's others.
            observe(s, block, sig)
            sig_line[block] = sig
            if pred[sig] >= mid:
                top = rmax - 1
                for other, rrpv in lines.items():
                    if rrpv < top:
                        lines[other] = rrpv + 1
                lines[block] = 0
            else:
                lines[block] = rmax
            dfills += 1

        def prefetch_fill(block, t, cycle):
            # Harmony: prefetches insert cache-averse and do not charge
            # OPTgen (no observe).  Their blocks never index the
            # pre-pass.
            nonlocal pfills
            lines = lines_by_set[block & set_mask]
            old = lines.pop(block, _ABSENT)
            if old is not _ABSENT:
                lines[block] = old
                return
            if len(lines) >= ways:
                _evict(lines)
            sig_line[block] = hash_sig(block)
            lines[block] = rmax
            pfills += 1

        def contains(block):
            return block in lines_by_set[block & set_mask]

        self.lookup = lookup
        self.repeat_hits = repeat_hits
        self.fill = fill
        self.prefetch_fill = prefetch_fill
        self.contains = contains
        self._flush = flush

    def finish_trace(self) -> None:
        """Engine end-of-run hook: flush deferred counters."""
        self._flush()
