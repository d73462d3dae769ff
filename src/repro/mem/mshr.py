"""Miss Status Holding Registers.

The paper's CSHR (Section III-B) is explicitly "inspired by the design
of MSHR that tracks outstanding misses"; we model the MSHR file both to
honour that lineage and because the timing engine uses it to merge
demand fetches into in-flight prefetches (a demand hit on an MSHR pays
only the *remaining* latency, a key FDP timeliness effect).

The file keeps a running lower bound on the earliest completion cycle
(``next_ready``) so the timing engine can skip ``drain`` entirely while
nothing is due — the common case, since most records issue no prefetch
and complete no fill.  Its two tables, ``pending`` and ``deferred``,
are plain dicts mutated in place, so the engine tests membership with
two dict lookups instead of a ``__contains__`` call per candidate.

Fill-delivery contract (PR 3): **no completed fill is ever discarded**.
Every allocated miss is eventually returned by exactly one ``drain``
call (unless a demand takeover ``cancel``\\ s it first).  ``allocate``
never drains internally; when the file is full, the earliest-completing
entry's register is handed over to the new miss — the displaced fill
still completes at its own ready cycle and is parked in a *deferred*
buffer that the next ``drain`` delivers.  (The seed model drained and
dropped such fills inside ``allocate``, silently understating every
prefetching scheme; ``tests/test_mshr_differential.py`` pins the fixed
semantics against a naive reference.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

_NEVER = float("inf")


@dataclass
class MSHRStats:
    allocations: int = 0
    merges: int = 0
    full_stalls: int = 0


class MSHRFile:
    """Tracks outstanding misses as block -> completion cycle."""

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError(f"MSHR entries must be positive, got {entries}")
        self.entries = entries
        # block -> ready cycle, in allocation order.  Read-only outside
        # this class (the timing engine tests membership on it).
        self.pending: Dict[int, int] = {}
        # Fills displaced by a full-file handover, block -> ready cycle in
        # handover order: they no longer hold a register (the stalled
        # miss took it) but still complete at their original ready cycle
        # and must reach the owning scheme.  A block is in at most one
        # of the two tables.  Read-only outside this class, like
        # ``pending``.
        self.deferred: Dict[int, int] = {}
        # Lower bound on min(completion cycles) over pending + deferred;
        # exact after every drain scan, possibly stale-low after cancel.
        # A stale-low bound only costs a spurious scan, never a missed
        # fill.
        self._min_ready: float = _NEVER
        self.stats = MSHRStats()

    def __len__(self) -> int:
        return len(self.pending) + len(self.deferred)

    def __contains__(self, block: int) -> bool:
        return block in self.pending or block in self.deferred

    @property
    def next_ready(self) -> float:
        """Earliest cycle at which any fill may complete (inf if none)."""
        return self._min_ready

    def drain(self, now: int) -> List[int]:
        """Deliver every fill that has completed by ``now``.

        Returns pending entries in allocation order, then deferred
        (handed-over) fills in handover order — the deterministic order
        the differential reference replicates.  Each fill is returned
        exactly once.
        """
        if now < self._min_ready:
            return []
        pending = self.pending
        done = [b for b, ready in pending.items() if ready <= now]
        for block in done:
            del pending[block]
        floor = min(pending.values()) if pending else _NEVER
        deferred = self.deferred
        if deferred:
            for block, ready in list(deferred.items()):
                if ready <= now:
                    done.append(block)
                    del deferred[block]
                elif ready < floor:
                    floor = ready
        self._min_ready = floor
        return done

    def ready_cycle(self, block: int) -> Optional[int]:
        ready = self.pending.get(block)
        if ready is not None:
            return ready
        return self.deferred.get(block)

    def allocate(self, block: int, ready_cycle: int, now: int) -> int:
        """Register an outstanding miss; returns its completion cycle.

        Merges into an existing entry (pending or deferred) for the same
        block.  When the file is full, the miss waits for the earliest
        completion slot: the whole latency is delayed by that wait and
        the displaced fill moves to the deferred buffer — it is *not*
        dropped; the next ``drain`` past its ready cycle delivers it.

        Callers that care about exact capacity pressure should ``drain``
        completed fills first; entries whose fills have completed but
        were never drained still occupy registers here.
        """
        pending = self.pending
        existing = pending.get(block)
        if existing is None:
            existing = self.deferred.get(block)
        if existing is not None:
            self.stats.merges += 1
            return existing
        if len(pending) >= self.entries:
            self.stats.full_stalls += 1
            # The miss cannot issue until a register frees: delay the
            # whole latency by the wait for the earliest completion,
            # whose fill is handed over to the deferred buffer.
            earliest_block = min(pending, key=pending.__getitem__)
            earliest = pending.pop(earliest_block)
            self.deferred[earliest_block] = earliest
            ready_cycle += max(0, earliest - now)
        pending[block] = ready_cycle
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        self.stats.allocations += 1
        return ready_cycle

    def cancel(self, block: int) -> None:
        """Drop the outstanding entry for ``block`` (demand takeover)."""
        if self.pending.pop(block, None) is None:
            self.deferred.pop(block, None)
        if not self.pending and not self.deferred:
            self._min_ready = _NEVER
