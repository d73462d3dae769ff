"""Fused LRU and Belady-OPT hot paths: the registry's lru/opt schemes.

:class:`FlatLRUScheme` is behaviourally identical to
``PlainCacheScheme(config, LRUPolicy())`` and :class:`FlatOPTScheme` to
``PlainCacheScheme(config, BeladyOPTPolicy(oracle))`` (MIN with
bypass, the policy's default) — same victims, same bypasses, same
stats — with the ``PlainCacheScheme -> SetAssociativeCache ->
ReplacementPolicy`` dispatch fused into single ``lookup``/``fill``
bodies (the ``FlatGHRPScheme`` pattern):

* the demand-hit path is the set dict's pop/reinsert; for OPT the line
  payload *is* the line's next-use index, so that same reinsert stores
  the refreshed ``next_use_at(t)`` (read straight from the oracle's
  ``array('q')``) and ``BeladyOPTPolicy._next_use`` is never kept;
* the OPT victim is the first line with the strictly-largest next use,
  scanning LRU -> MRU, and the fill is bypassed when the incoming
  block's ``next_use_of`` is at least that far away (fills are rare, so
  they keep the oracle's bisect);
* the stats counters accumulate in closure cells and are flushed into
  ``icache.stats`` by the engine's ``finish_trace`` hook and by a
  pickle (:class:`~repro.mem.policies.base.BoundHotPath`, which engine
  checkpoints go through).

``tests/test_policy_differential.py`` pins both twins to the readable
scheme, comparing states through a test-side projection into the
``PlainCacheScheme`` shape.
"""

from __future__ import annotations

from operator import itemgetter

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NextUseOracle
from repro.mem.policies.base import BoundHotPath, ReplacementPolicy
from repro.mem.policies.belady import BeladyOPTPolicy
from repro.mem.policies.lru import LRUPolicy

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()

_payload = itemgetter(1)


class _FlatPlainScheme(BoundHotPath):
    """Shared scaffolding: the wrapped cache, ``contains``, the flush hook."""

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy) -> None:
        self.config = config
        self.policy = policy
        self.name = policy.name
        self.icache = SetAssociativeCache(config, policy)
        # The live per-set dicts (one list for the scheme's lifetime).
        self._lines_by_set = self.icache.line_dicts()
        self._bind()

    def _bind(self) -> None:
        """Close the protocol methods over the hot containers.

        Re-binding first flushes any counters deferred by the previous
        closures; subclasses then assign ``lookup``/``fill``/
        ``prefetch_fill``/``_flush`` onto the instance.
        """
        flush_prev = self.__dict__.get("_flush")
        if flush_prev is not None:
            flush_prev()
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask

        def contains(block):
            return block in lines_by_set[block & set_mask]

        self.contains = contains

    def finish_trace(self) -> None:
        """Engine end-of-run hook: flush deferred counters."""
        self._flush()


class FlatLRUScheme(_FlatPlainScheme):
    """LRU-replaced L1i on a fused hot path (fast twin)."""

    def __init__(self, config: CacheConfig) -> None:
        super().__init__(config, LRUPolicy())

    def _bind(self) -> None:
        super()._bind()
        stats = self.icache.stats
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask
        ways = self.config.ways

        # Deferred counters: every lookup bumps exactly one of hits and
        # misses, so demand_accesses is their sum at flush time.
        hits = misses = evicts = dfills = pfills = 0

        def flush():
            nonlocal hits, misses, evicts, dfills, pfills
            stats.demand_accesses += hits + misses
            stats.demand_hits += hits
            stats.evictions += evicts
            stats.demand_fills += dfills
            stats.prefetch_fills += pfills
            hits = misses = evicts = dfills = pfills = 0

        def lookup(block, t, cycle):
            nonlocal hits, misses
            lines = lines_by_set[block & set_mask]
            payload = lines.pop(block, _ABSENT)
            if payload is _ABSENT:
                misses += 1
                return False
            lines[block] = payload  # back in at MRU
            hits += 1
            return True

        def fill(block, t, cycle):
            nonlocal evicts, dfills
            lines = lines_by_set[block & set_mask]
            payload = lines.pop(block, _ABSENT)
            if payload is not _ABSENT:
                # Racing prefetch/demand fill: just refresh recency.
                lines[block] = payload
                return
            if len(lines) >= ways:
                del lines[next(iter(lines))]
                evicts += 1
            lines[block] = None
            dfills += 1

        def prefetch_fill(block, t, cycle):
            nonlocal evicts, pfills
            lines = lines_by_set[block & set_mask]
            payload = lines.pop(block, _ABSENT)
            if payload is not _ABSENT:
                lines[block] = payload
                return
            if len(lines) >= ways:
                del lines[next(iter(lines))]
                evicts += 1
            lines[block] = None
            pfills += 1

        def repeat_hits(block, count, last_t):
            # The block is already MRU: only the hit counter moves.
            nonlocal hits
            hits += count

        self.lookup = lookup
        self.fill = fill
        self.prefetch_fill = prefetch_fill
        self.repeat_hits = repeat_hits
        self._flush = flush


class FlatOPTScheme(_FlatPlainScheme):
    """Belady-OPT-replaced L1i on a fused hot path (fast twin)."""

    def __init__(self, config: CacheConfig, oracle: NextUseOracle) -> None:
        super().__init__(config, BeladyOPTPolicy(oracle))

    def _bind(self) -> None:
        super()._bind()
        stats = self.icache.stats
        lines_by_set = self._lines_by_set
        set_mask = self.icache._set_mask
        ways = self.config.ways
        oracle = self.policy.oracle
        next_use_at = oracle._next_use
        next_use_of = oracle.next_use_of

        hits = misses = evicts = dfills = pfills = bypasses = 0

        def flush():
            nonlocal hits, misses, evicts, dfills, pfills, bypasses
            stats.demand_accesses += hits + misses
            stats.demand_hits += hits
            stats.evictions += evicts
            stats.demand_fills += dfills
            stats.prefetch_fills += pfills
            stats.bypasses += bypasses
            hits = misses = evicts = dfills = pfills = bypasses = 0

        def lookup(block, t, cycle):
            nonlocal hits, misses
            lines = lines_by_set[block & set_mask]
            if lines.pop(block, _ABSENT) is _ABSENT:
                misses += 1
                return False
            # Inlined on_hit: back in at MRU with the refreshed next use.
            lines[block] = next_use_at[t]
            hits += 1
            return True

        def make_room(lines, incoming_next):
            """Evict OPT's victim from a full set; False to bypass instead."""
            nonlocal evicts, bypasses
            # max() keeps the first of equal keys: the LRU-most line
            # among those with the furthest next use.
            victim, furthest = max(lines.items(), key=_payload)
            if incoming_next >= furthest:
                bypasses += 1
                return False
            del lines[victim]
            evicts += 1
            return True

        def fill(block, t, cycle):
            nonlocal dfills
            lines = lines_by_set[block & set_mask]
            payload = lines.pop(block, _ABSENT)
            if payload is not _ABSENT:
                # Racing prefetch/demand fill: just refresh recency.
                lines[block] = payload
                return
            if len(lines) >= ways and not make_room(
                lines, next_use_of(block, t)
            ):
                return
            lines[block] = next_use_at[t]
            dfills += 1

        def prefetch_fill(block, t, cycle):
            nonlocal pfills
            lines = lines_by_set[block & set_mask]
            payload = lines.pop(block, _ABSENT)
            if payload is not _ABSENT:
                lines[block] = payload
                return
            when = next_use_of(block, t)
            if len(lines) >= ways and not make_room(lines, when):
                return
            lines[block] = when
            pfills += 1

        def repeat_hits(block, count, last_t):
            # The block is already MRU; only the last hit's next use sticks.
            nonlocal hits
            lines_by_set[block & set_mask][block] = next_use_at[last_t]
            hits += count

        self.lookup = lookup
        self.fill = fill
        self.prefetch_fill = prefetch_fill
        self.repeat_hits = repeat_hits
        self._flush = flush
