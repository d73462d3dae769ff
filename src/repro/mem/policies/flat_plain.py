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
  ``array('q')``) and ``BeladyOPTPolicy._next_use`` needs no per-access
  maintenance (it is materialised from the payloads at ``save_state``
  and merged back on ``load_state``);
* the OPT victim is the first line with the strictly-largest next use,
  scanning LRU -> MRU, and the fill is bypassed when the incoming
  block's ``next_use_of`` is at least that far away (fills are rare, so
  they keep the oracle's bisect);
* the stats counters accumulate in closure cells and are flushed into
  the authoritative ``icache.stats`` at the state boundaries
  (``save_state``, the engine's ``finish_trace`` hook).

The wrapped :class:`~repro.mem.cache.SetAssociativeCache` (and, for
OPT, its :class:`~repro.mem.policies.belady.BeladyOPTPolicy`) remain
the authoritative state containers at every ``save_state``/
``load_state`` boundary; the snapshot keeps the exact
``PlainCacheScheme`` shape (line payloads ``None``, counters flushed)
so checkpoints interchange with the readable scheme, which
``tests/test_policy_differential.py`` pins this one to.
"""

from __future__ import annotations

from operator import itemgetter

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NextUseOracle
from repro.mem.policies.base import ReplacementPolicy
from repro.mem.policies.belady import BeladyOPTPolicy
from repro.mem.policies.lru import LRUPolicy

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()

_payload = itemgetter(1)


class _FlatPlainScheme:
    """Shared scaffolding: the wrapped cache, flush/drop, state shape."""

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy) -> None:
        self.config = config
        self.policy = policy
        self.name = policy.name
        self.icache = SetAssociativeCache(config, policy)
        # The live per-set dicts (mutated in place by load_state, so
        # this list stays valid for the scheme's lifetime).
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

    def _drop(self) -> None:
        """Forget deferred deltas (``load_state`` replaces the counters).

        The next ``_bind`` starts fresh counter cells; dropping this
        binding's flush keeps its rebind preamble from writing stale
        values over the loaded state.
        """
        self.__dict__.pop("_flush", None)

    def finish_trace(self) -> None:
        """Engine end-of-run hook: flush deferred counters."""
        self._flush()

    # -- checkpoint/resume ---------------------------------------------------

    def save_state(self) -> dict:
        self._flush()
        return {"icache": self.icache.save_state()}

    def load_state(self, state: dict) -> None:
        self._drop()
        self.icache.load_state(state["icache"])
        self._bind()


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

    # -- checkpoint/resume ---------------------------------------------------
    #
    # save_state materialises BeladyOPTPolicy._next_use from the line
    # payloads and normalises the payloads back to the reference None;
    # load_state merges the loaded _next_use (which times every resident
    # line) into the payloads.

    def save_state(self) -> dict:
        self._flush()
        next_use = self.policy._next_use
        next_use.clear()
        for lines in self._lines_by_set:
            next_use.update(lines)
        state = {"icache": self.icache.save_state()}
        icache_state = state["icache"]
        icache_state["sets"] = [
            dict.fromkeys(lines) for lines in icache_state["sets"]
        ]
        return state

    def load_state(self, state: dict) -> None:
        self._drop()
        self.icache.load_state(state["icache"])
        next_use = self.policy._next_use
        for lines in self._lines_by_set:
            for block in lines:
                lines[block] = next_use[block]
        self._bind()
