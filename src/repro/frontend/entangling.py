"""Entangling instruction prefetcher (Ros & Jimborean, ISCA'21).

The entangling prefetcher pairs each demand miss (the *destination*)
with the block whose fetch happened just early enough that a prefetch
issued there would have arrived in time (the *source*): the two blocks
are "entangled".  From then on, fetching the source triggers a prefetch
of its destinations.

Model: a ring of recent fetches (cycle, block) provides the timeliness
lookup; a 4K-entry table maps source -> up to two destinations with LRU
replacement across entries, matching the paper's 4K-entry entangled
table (Section IV-H4; ~40 KB of state, larger than the L1i itself).

Unlike FDP, the entangling table trains on *live miss timing*: which
records miss, and at what cycle, depends on the L1i scheme under test,
so its training stream cannot be precomputed the way a
:class:`~repro.frontend.plan.FrontendPlan` is.  Entangling runs take the
``none`` plan (branch flushes only) and the engine drives this object
live inside its one record loop.  The two steps of training are
separate methods (:meth:`EntanglingPrefetcher._select_source` and
:meth:`EntanglingPrefetcher._entangle`) so
``tests/test_entangling_table.py`` can pin each one directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.common.containers import LRUSet
from repro.workloads.trace import Trace

#: Shared empty result; candidate lists are read-only to callers.
_NO_CANDIDATES: List[int] = []


@dataclass
class EntanglingStats:
    """Training/issue counters of one :class:`EntanglingPrefetcher`.

    ``entangled`` counts source->destination pairs formed (including
    destinations appended to an existing entry), ``issued`` candidate
    blocks offered to the engine, and ``table_evictions`` entangled-table
    entries displaced by LRU replacement.
    """

    entangled: int = 0
    issued: int = 0
    table_evictions: int = 0


class EntanglingPrefetcher:
    """Source->destination entangling with timeliness-based pairing.

    Implements the engine's ``Prefetcher`` protocol
    (:meth:`observe_fetch` / :meth:`on_demand_miss` / :meth:`candidates`)
    over a bounded LRU table of ``source -> [destinations]`` entries:

    * every fetch is pushed into a ring of recent ``(cycle, block)``
      visits (same-block runs collapse to one visit);
    * every demand miss picks, from that ring, the *latest* visit that
      is still at least ``latency_estimate`` cycles old — the earliest
      point a prefetch could have been issued and still arrived in
      time — and entangles (source, missing block);
    * every fetch of a source block offers its entangled destinations
      as prefetch candidates.

    :param trace: the fetch trace (block ids resolve record indices).
    :param table_entries: entangled-table capacity (paper: 4K entries).
    :param dests_per_entry: destinations kept per source (paper: 2).
    :param latency_estimate: cycles a prefetch needs to complete; the
        timeliness threshold for source selection.
    :param history: depth of the recent-fetch ring.
    """

    name = "entangling"

    def __init__(
        self,
        trace: Trace,
        table_entries: int = 4096,
        dests_per_entry: int = 2,
        latency_estimate: int = 40,
        history: int = 512,
    ) -> None:
        self.trace = trace
        self.table_entries = table_entries
        self.dests_per_entry = dests_per_entry
        self.latency_estimate = latency_estimate
        self.history = history
        self.table = LRUSet(table_entries)
        self.stats = EntanglingStats()
        self._recent: Deque[Tuple[int, int]] = deque(maxlen=history)
        self._blocks = trace.blocks_list  # avoid per-record ndarray boxing

    def __getstate__(self) -> dict:
        # The block list is the trace's: an engine capture keeps the
        # trace by reference, and a load takes the list from it again.
        state = dict(vars(self))
        del state["_blocks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._blocks = self.trace.blocks_list

    # -- engine interface -------------------------------------------------------

    def observe_fetch(self, block: int, cycle: int) -> None:
        """Record a fetch for future source selection.

        A repeat of the last recorded block is a no-op, so the engine
        calls this only after a real ``lookup``.
        """
        if self._recent and self._recent[-1][1] == block:
            return  # collapse same-block runs; sources are block visits
        self._recent.append((cycle, block))

    def on_demand_miss(self, block: int, cycle: int) -> None:
        """Entangle ``block`` with a timely source from recent history."""
        source = self._select_source(block, cycle)
        if source is not None:
            self._entangle(source, block)

    def candidates(self, i: int) -> List[int]:
        """Destinations entangled to the block fetched at record ``i``."""
        block = self._blocks[i]
        dests = self.table.get(block)
        if not dests:
            return _NO_CANDIDATES
        self.table.touch(block)
        self.stats.issued += len(dests)
        return list(dests)

    # -- training steps ---------------------------------------------------------

    def _select_source(self, block: int, cycle: int) -> Optional[int]:
        """The timely source for a miss of ``block`` at ``cycle``, if any.

        Scans the recent-fetch ring oldest-first and keeps the last
        visit at least ``latency_estimate`` cycles old: the *latest*
        fetch from which a prefetch would still have arrived in time.
        Returns None when no visit is old enough or the only candidate
        is the missing block itself.
        """
        source = None
        for when, candidate in self._recent:
            if cycle - when >= self.latency_estimate:
                source = candidate  # latest fetch far enough back wins
            else:
                break
        if source is None or source == block:
            return None
        return source

    def _entangle(self, source: int, block: int) -> None:
        """Add ``source -> block`` to the table (LRU-evicting when full).

        A new source allocates a fresh entry; an existing entry appends
        ``block`` FIFO-style within ``dests_per_entry`` slots.  A
        destination already present is a no-op (``stats.entangled``
        counts pairs actually formed).
        """
        dests = self.table.get(source)
        if dests is None:
            if self.table.insert_mru(source, [block]) is not None:
                self.stats.table_evictions += 1
            self.stats.entangled += 1
        elif block not in dests:
            if len(dests) >= self.dests_per_entry:
                dests.pop(0)
            dests.append(block)
            self.stats.entangled += 1
