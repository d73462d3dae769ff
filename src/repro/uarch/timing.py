"""The front-end timing engine.

A fluid-model decoupled front-end (DESIGN.md section 2): fetch delivers
one record per cycle into the decode queue; the backend drains
``backend_ipc`` instructions per cycle; i-cache misses stall fetch for
the hierarchy latency minus what the queue backlog hides; mispredicted
branches flush; prefetchers (FDP run-ahead or entangling) inject fills
through the MSHR file.

The engine is scheme-agnostic: anything implementing the L1I scheme
protocol (``lookup`` / ``fill`` / ``prefetch_fill`` / ``contains``) can
be measured.  Statistics honour the paper's methodology: the first
``warmup_fraction`` of the trace warms all structures and is excluded
from reported numbers (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

from repro.frontend.stack import BranchStack
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.uarch.params import MachineParams
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # avoid an import cycle at runtime
    from typing import Union

    from repro.frontend.entangling_plan import EntanglingPlan
    from repro.frontend.plan import FrontendPlan

    AnyPlan = Union[FrontendPlan, EntanglingPlan]


class L1IScheme(Protocol):
    """The instruction-supply scheme under test."""

    name: str

    def lookup(self, block: int, t: int, cycle: int) -> bool: ...

    def fill(self, block: int, t: int, cycle: int) -> None: ...

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None: ...

    def contains(self, block: int) -> bool: ...


class Prefetcher(Protocol):
    """Prefetch engine driving fills through the MSHRs."""

    name: str

    def candidates(self, i: int) -> list: ...

    def observe_fetch(self, block: int, cycle: int) -> None: ...

    def on_demand_miss(self, block: int, cycle: int) -> None: ...


@dataclass
class RunResult:
    """Post-warmup measurements of one (trace, scheme, prefetcher) run."""

    workload: str
    scheme_name: str
    prefetcher_name: str
    instructions: int = 0
    accesses: int = 0
    cycles: float = 0.0
    demand_misses: int = 0
    late_prefetch_misses: int = 0
    prefetches_issued: int = 0
    mispredicted_transitions: int = 0
    scheme: Optional[object] = field(default=None, repr=False)

    @property
    def mpki(self) -> float:
        """L1i demand misses per 1000 instructions."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.demand_misses / self.instructions

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.demand_misses / self.accesses if self.accesses else 0.0

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time speedup of *this* run relative to ``baseline``."""
        if self.cycles == 0:
            raise ValueError("run has no cycles; was the trace empty?")
        return baseline.cycles / self.cycles

    def mpki_reduction_over(self, baseline: "RunResult") -> float:
        """MPKI reduction (%) relative to ``baseline`` (positive = fewer)."""
        if baseline.mpki == 0:
            return 0.0
        return 100.0 * (baseline.mpki - self.mpki) / baseline.mpki


#: Loop counters serialized into an engine checkpoint, in capture order.
#: The planned loop has no ``base_mispred`` (its plan counts
#: mispredictions), so its counter tuples stop one field short.
_COUNTER_FIELDS = (
    "cycles",
    "queue",
    "demand_misses",
    "late_prefetch",
    "prefetches_issued",
    "instructions",
    "base_cycles",
    "base_misses",
    "base_late",
    "base_issued",
    "base_instr",
    "base_mispred",
)

#: Counter values of a run that starts at record 0.
_FRESH_COUNTERS = (0.0, 0.0, 0, 0, 0, 0, 0.0, 0, 0, 0, 0, 0)


def _restore(resume: Optional[dict], mode: str, parts: dict) -> tuple:
    """``(start, counters)`` for a run, loading ``resume`` into ``parts``.

    ``parts`` maps each state key to its collaborator (scheme, MSHRs,
    hierarchy, and for live runs the stack and prefetcher); without a
    resume state the run starts fresh at record 0.  Planned states
    carry no ``base_mispred``, which therefore stays at its fresh 0.
    """
    if resume is None:
        return 0, _FRESH_COUNTERS
    if resume.get("mode") != mode:
        raise ValueError(
            f"resume state is {resume.get('mode')!r}, this is a {mode} run"
        )
    for key, part in parts.items():
        part.load_state(resume[key])
    counters = resume["counters"]
    fields = _COUNTER_FIELDS if mode == "live" else _COUNTER_FIELDS[:-1]
    values = tuple(counters[k] for k in fields)
    return resume["next_record"], values + _FRESH_COUNTERS[len(values):]


def _capture(mode: str, i: int, counters: tuple, parts: dict) -> dict:
    """The engine state before record ``i``: what ``_restore`` takes."""
    state = {
        "mode": mode,
        "next_record": i,
        "counters": dict(zip(_COUNTER_FIELDS, counters)),
    }
    for key, part in parts.items():
        state[key] = part.save_state()
    return state


def simulate(
    trace: Trace,
    scheme: L1IScheme,
    prefetcher: Optional[Prefetcher] = None,
    stack: Optional[BranchStack] = None,
    machine: Optional[MachineParams] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    plan: Optional["AnyPlan"] = None,
    resume: Optional[dict] = None,
    checkpoint_every: int = 0,
    on_checkpoint=None,
) -> Optional[RunResult]:
    """Run ``scheme`` over ``trace`` and return post-warmup measurements.

    Two frontend modes (pinned against each other by
    ``tests/test_frontend_plan.py`` and ``tests/test_entangling_plan.py``):

    * **live** — ``prefetcher`` and ``stack`` drive branch training and
      the prefetch candidate stream per record (the reference path, and
      the recording pass of the two-pass entangling plan);
    * **planned** — ``plan`` is a precomputed
      :class:`~repro.frontend.plan.FrontendPlan` (fdp/none, always
      bit-identical to live) or
      :class:`~repro.frontend.entangling_plan.EntanglingPlan`
      (bit-identical when replayed for its reference scheme; documented
      approximation across schemes) and the engine reads mispredict
      flags and candidate spans from flat arrays, touching no
      branch-stack or prefetcher code at all.

    The loop body runs once per fetch record — two million times for a
    full-length sweep pair — so everything invariant is hoisted out of
    it: trace arrays become plain Python lists (one bulk conversion
    instead of per-record ndarray scalar boxing), scheme/prefetcher/MSHR
    methods are bound to locals, ``int(cycles)`` is computed once per
    program point that needs it, branch retirement is gated on the
    precomputed branch-kind list, and the MSHR drain is gated on the
    file's running *next-ready cycle* instead of probing its occupancy
    every record.

    The two modes share one scaffold (setup, resume, boundary capture,
    result assembly) around two separate record loops, each free of
    mode tests.  The planned loop takes branch flushes from
    ``plan.mispredict`` and the prefetch candidate stream from
    ``plan.cand_lo/cand_hi`` spans over
    ``plan.candidate_blocks_list(trace)`` — the trace's own blocks for
    FDP run-ahead, the recorded issue stream for an entangling plan.

    Checkpoint/resume (``tests/test_checkpoint.py`` pins chunked runs
    bit-identical to single-pass; the shard ledger in
    :mod:`repro.harness.shards` persists the captures): with
    ``checkpoint_every > 0`` the engine captures its full warm state —
    loop counters plus the ``save_state()`` of every stateful
    collaborator — at the top of each iteration whose absolute index is
    a multiple of ``checkpoint_every`` (state == completion of records
    ``0..i-1``), *before* the warmup snapshot branch so a resume landing
    exactly on ``warmup_end`` re-derives the base counters identically.
    ``on_checkpoint(state)`` receives each capture; returning truthy
    stops the run early and ``simulate`` returns None.  ``resume`` takes such a state and
    continues from its ``next_record``; the engine restores its own
    collaborators (it constructs the MSHR/hierarchy), so callers only
    rebuild the scheme/stack/prefetcher fresh from their factories.
    The default ``checkpoint_every=0`` keeps the hot loop at one extra
    integer compare per record.
    """
    if machine is None:
        raise TypeError("simulate() requires machine parameters")
    n = len(trace)
    warmup_end = int(n * machine.warmup_fraction)
    hierarchy = hierarchy or MemoryHierarchy(machine.hierarchy)
    mshr = MSHRFile(machine.mshr_entries)
    parts = {"scheme": scheme, "mshr": mshr, "hierarchy": hierarchy}
    if plan is None:
        if prefetcher is None or stack is None:
            raise TypeError(
                "simulate() needs a prefetcher and a stack when no plan is given"
            )
        mode = "live"
        parts.update(stack=stack, prefetcher=prefetcher)
        kinds = trace.branch_kind_list
        stack_retire = stack.retire
        pf_candidates = prefetcher.candidates
        pf_observe_fetch = prefetcher.observe_fetch
        pf_on_demand_miss = prefetcher.on_demand_miss
    else:
        if prefetcher is not None or stack is not None:
            raise ValueError(
                "pass either a precomputed plan or a live prefetcher/stack, "
                "not both"
            )
        if len(plan) != n:
            raise ValueError(
                f"plan covers {len(plan)} records, trace has {n}; "
                "was the plan built for a different trace?"
            )
        if warmup_end != plan.warmup_end:
            raise ValueError(
                f"plan warmup split {plan.warmup_end} != machine's {warmup_end}; "
                "rebuild the plan for this machine configuration"
            )
        mode = "planned"
        mispredict = plan.mispredict_list
        cand_lo = plan.cand_lo_list
        cand_hi = plan.cand_hi_list
        cand_blocks = plan.candidate_blocks_list(trace)

    blocks = trace.blocks_list
    instr_counts = trace.instrs_list

    backend_ipc = machine.backend_ipc
    queue_cap = float(machine.decode_queue_instrs)
    penalty = machine.branch_mispredict_penalty

    # Schemes that consume the shared replacement pre-pass bind their
    # per-record arrays here (pure, idempotent — safe per resumed chunk).
    prepare_trace = getattr(scheme, "prepare_trace", None)
    if prepare_trace is not None:
        prepare_trace(trace)

    hierarchy_access = hierarchy.access
    mshr_drain = mshr.drain
    mshr_ready_cycle = mshr.ready_cycle
    mshr_cancel = mshr.cancel
    mshr_allocate = mshr.allocate
    mshr_contains = mshr.__contains__

    # Loop counters, plus the base_* snapshots taken when warmup ends.
    start, counters = _restore(resume, mode, parts)
    (cycles, queue, demand_misses, late_prefetch, prefetches_issued,
     instructions, base_cycles, base_misses, base_late, base_issued,
     base_instr, base_mispred) = counters
    next_ready = mshr.next_ready

    # Hoisted after the resume load on purpose: the flat policy twins
    # re-close their protocol methods over freshly loaded containers, so
    # binding these any earlier would drive stale closures.
    scheme_lookup = scheme.lookup
    scheme_fill = scheme.fill
    scheme_prefetch_fill = scheme.prefetch_fill
    scheme_contains = scheme.contains

    if checkpoint_every > 0:
        # Next absolute multiple strictly past the starting record.
        next_ckpt = (start // checkpoint_every + 1) * checkpoint_every
    else:
        next_ckpt = n + 1  # never taken: one dead int compare per record

    # Exactly one of the two record loops runs (the other iterates
    # nothing): the live loop, then its planned twin.  Any change to
    # either must keep the scalars bit-identical to the other
    # (``tests/test_frontend_plan.py`` and
    # ``tests/test_entangling_plan.py`` pin this across schemes, branch
    # kinds and workload profiles).
    for i in range(start, n) if plan is None else ():
        if i == next_ckpt:
            next_ckpt += checkpoint_every
            state = _capture("live", i, (
                cycles, queue, demand_misses, late_prefetch,
                prefetches_issued, instructions, base_cycles, base_misses,
                base_late, base_issued, base_instr, base_mispred,
            ), parts)
            if on_checkpoint is not None and on_checkpoint(state):
                return None

        if i == warmup_end:
            base_cycles = cycles
            base_misses = demand_misses
            base_late = late_prefetch
            base_issued = prefetches_issued
            base_instr = instructions
            base_mispred = stack.stats.mispredicted_transitions

        block = blocks[i]
        n_instr = instr_counts[i]
        instructions += n_instr

        # Resolve and train the transition that led here; charge flushes.
        # Sequential records (the vast majority) retire to nothing.
        if kinds[i] and stack_retire(i):
            cycles += penalty

        # One front-end cycle per fetch record; the backend drains the
        # queue meanwhile.  Overfull queues mean the backend is the
        # bottleneck: charge the extra drain time.
        cycles += 1.0
        queue += n_instr - backend_ipc
        if queue > queue_cap:
            cycles += (queue - queue_cap) / backend_ipc
            queue = queue_cap
        elif queue < 0.0:
            queue = 0.0

        icycles = int(cycles)

        # Prefetch fills that have arrived land in the scheme.
        if next_ready <= cycles:
            for done in mshr_drain(cycles):
                scheme_prefetch_fill(done, i, icycles)
            next_ready = mshr.next_ready

        if not scheme_lookup(block, i, icycles):
            demand_misses += 1
            ready = mshr_ready_cycle(block)
            if ready is not None:
                # Late prefetch: pay only the remaining latency.
                mshr_cancel(block)
                latency = ready - cycles
                if latency < 0.0:
                    latency = 0.0
                late_prefetch += 1
            else:
                latency = float(hierarchy_access(block, i))
            pf_on_demand_miss(block, icycles)
            # The decode-queue backlog hides part of the stall.
            stall = latency - queue / backend_ipc
            if stall > 0.0:
                cycles += stall
            queue -= latency * backend_ipc
            if queue < 0.0:
                queue = 0.0
            icycles = int(cycles)
            scheme_fill(block, i, icycles)
            # The stall advanced ``cycles``: prefetch fills that completed
            # meanwhile must reach the scheme before the candidate loop
            # (the seed model let ``allocate`` silently drop them).
            if next_ready <= cycles:
                for done in mshr_drain(cycles):
                    scheme_prefetch_fill(done, i, icycles)
                next_ready = mshr.next_ready

        pf_observe_fetch(block, icycles)
        for candidate in pf_candidates(i):
            if mshr_contains(candidate) or scheme_contains(candidate):
                continue
            latency = float(hierarchy_access(candidate, i))
            ready = mshr_allocate(candidate, cycles + latency, cycles)
            if ready < next_ready:
                next_ready = ready
            prefetches_issued += 1

    for i in range(start, n) if plan is not None else ():
        if i == next_ckpt:
            next_ckpt += checkpoint_every
            state = _capture("planned", i, (
                cycles, queue, demand_misses, late_prefetch,
                prefetches_issued, instructions, base_cycles, base_misses,
                base_late, base_issued, base_instr,
            ), parts)
            if on_checkpoint is not None and on_checkpoint(state):
                return None

        if i == warmup_end:
            base_cycles = cycles
            base_misses = demand_misses
            base_late = late_prefetch
            base_issued = prefetches_issued
            base_instr = instructions

        block = blocks[i]
        n_instr = instr_counts[i]
        instructions += n_instr

        if mispredict[i]:
            cycles += penalty

        cycles += 1.0
        queue += n_instr - backend_ipc
        if queue > queue_cap:
            cycles += (queue - queue_cap) / backend_ipc
            queue = queue_cap
        elif queue < 0.0:
            queue = 0.0

        icycles = int(cycles)

        if next_ready <= cycles:
            for done in mshr_drain(cycles):
                scheme_prefetch_fill(done, i, icycles)
            next_ready = mshr.next_ready

        if not scheme_lookup(block, i, icycles):
            demand_misses += 1
            ready = mshr_ready_cycle(block)
            if ready is not None:
                mshr_cancel(block)
                latency = ready - cycles
                if latency < 0.0:
                    latency = 0.0
                late_prefetch += 1
            else:
                latency = float(hierarchy_access(block, i))
            stall = latency - queue / backend_ipc
            if stall > 0.0:
                cycles += stall
            queue -= latency * backend_ipc
            if queue < 0.0:
                queue = 0.0
            icycles = int(cycles)
            scheme_fill(block, i, icycles)
            # Mirror of the live path: surface fills completed during the
            # stall before the candidate loop can re-request their blocks.
            if next_ready <= cycles:
                for done in mshr_drain(cycles):
                    scheme_prefetch_fill(done, i, icycles)
                next_ready = mshr.next_ready

        lo = cand_lo[i]
        hi = cand_hi[i]
        if lo < hi:
            for candidate in cand_blocks[lo:hi]:
                if mshr_contains(candidate) or scheme_contains(candidate):
                    continue
                latency = float(hierarchy_access(candidate, i))
                ready = mshr_allocate(candidate, cycles + latency, cycles)
                if ready < next_ready:
                    next_ready = ready
                prefetches_issued += 1

    # Schemes that defer counter updates into their fused hot path flush
    # them here (checkpoint captures flush inside save_state instead).
    finish_trace = getattr(scheme, "finish_trace", None)
    if finish_trace is not None:
        finish_trace()

    if plan is None:
        prefetcher_name = prefetcher.name
        mispredicted = stack.stats.mispredicted_transitions - base_mispred
    else:
        prefetcher_name = plan.prefetcher
        mispredicted = plan.mispredicted_after_warmup()
    return RunResult(
        workload=trace.name,
        scheme_name=scheme.name,
        prefetcher_name=prefetcher_name,
        instructions=instructions - base_instr,
        accesses=n - warmup_end,
        cycles=cycles - base_cycles,
        demand_misses=demand_misses - base_misses,
        late_prefetch_misses=late_prefetch - base_late,
        prefetches_issued=prefetches_issued - base_issued,
        mispredicted_transitions=mispredicted,
        scheme=scheme,
    )
