"""FDP: fetch-directed instruction prefetching (Ishii et al., ISPASS'21).

The per-record prefetcher objects behind the frontend plan:
:func:`repro.frontend.plan.build_plan` replays this run-ahead into flat
candidate spans, and ``reference/plan.py`` (the naive builder) and
``reference/engine.py`` (the stack-driven record loop) drive these
objects one record at a time as the plan's executable reference.

A decoupled front-end runs ahead of fetch: the branch-prediction stack
(BTB + TAGE + RAS) generates future fetch targets into a fetch target
queue, and the prefetcher issues L1i prefetches for those blocks.  The
run-ahead can only follow *predictable* control flow — it stalls at the
first transition the stack would mispredict and re-arms once fetch
catches up with (and resolves) that branch.

In a trace-driven simulator we model this by walking the actual future
path and gating each transition on the :class:`BranchStack`'s verdict.
The walk is incremental: every trace record is examined at most once,
so the cost is O(1) amortised per fetched record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.frontend.stack import BranchStack
from repro.workloads.trace import Trace


#: Shared empty result for records offering nothing new.  Callers treat
#: candidate lists as read-only, so one instance serves every call.
_NO_CANDIDATES: List[int] = []


@dataclass
class FDPStats:
    issued: int = 0
    runahead_stalls: int = 0


class FetchDirectedPrefetcher:
    """Run-ahead prefetcher gated by the shared branch stack."""

    name = "fdp"

    def __init__(self, trace: Trace, stack: BranchStack, depth: int = 32) -> None:
        if depth <= 0:
            raise ValueError(f"run-ahead depth must be positive, got {depth}")
        self.trace = trace
        self.stack = stack
        self.depth = depth
        self.stats = FDPStats()
        self._ra = 1  # next record the run-ahead will examine
        self._blocks = trace.blocks_list
        self._last = len(trace) - 1

    def candidates(self, i: int) -> List[int]:
        """Blocks newly reachable by run-ahead while fetch sits at ``i``.

        Returns only records not offered before (the engine deduplicates
        against cache/i-Filter/MSHR contents).  When the run-ahead had
        stalled on an unpredictable transition, it re-arms as soon as
        fetch passes that record.
        """
        ra = self._ra
        if ra <= i:
            ra = i + 1  # fetch resolved the blocking branch
        limit = i + self.depth
        if limit > self._last:
            limit = self._last
        if ra > limit:
            self._ra = ra
            return _NO_CANDIDATES
        blocks = self._blocks
        predictable = self.stack.predictable
        out: List[int] = []
        while ra <= limit:
            if not predictable(ra):
                self.stats.runahead_stalls += 1
                break
            out.append(blocks[ra])
            ra += 1
        self._ra = ra
        self.stats.issued += len(out)
        return out

    def observe_fetch(self, block: int, cycle: int) -> None:
        pass  # FDP keys off the branch stack, not the fetch stream

    def on_demand_miss(self, block: int, cycle: int) -> None:
        pass


class NullPrefetcher:
    """No prefetching (unit tests and the no-prefetch ablation)."""

    name = "none"

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def candidates(self, i: int) -> List[int]:
        return _NO_CANDIDATES

    def observe_fetch(self, block: int, cycle: int) -> None:
        pass

    def on_demand_miss(self, block: int, cycle: int) -> None:
        pass
