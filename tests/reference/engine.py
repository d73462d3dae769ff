"""The stack-driven record loop: the executable reference for ``simulate``.

:func:`repro.uarch.timing.simulate` reads branch flushes and FDP
candidates from a precomputed frontend plan and skips scheme calls
whose answer cannot have changed.  This module keeps the plain version
it replaced: every record retires its transition through a live
:class:`~repro.frontend.stack.BranchStack`, makes one ``lookup``, and
asks a prefetcher object for candidates.  ``tests/test_frontend_plan.py``,
``tests/test_mshr_differential.py`` and ``tests/test_harness.py`` pin the
production engine to it scalar for scalar.  It has no checkpointing.
"""

from __future__ import annotations

from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.stack import BranchStack
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.uarch.params import MachineParams
from repro.uarch.timing import RunResult
from repro.workloads.trace import Trace
from reference.fdp import FetchDirectedPrefetcher, NullPrefetcher

PREFETCHERS = ("fdp", "entangling", "none")


def build_prefetcher(
    name: str, trace: Trace, stack: BranchStack, machine: MachineParams
):
    """The per-record prefetcher object for ``name``."""
    if name == "fdp":
        return FetchDirectedPrefetcher(trace, stack, depth=machine.ftq_depth_records)
    if name == "entangling":
        return EntanglingPrefetcher(trace)
    if name == "none":
        return NullPrefetcher(trace)
    raise KeyError(f"unknown prefetcher {name!r}; known: {PREFETCHERS}")


def simulate_live(
    trace: Trace,
    scheme,
    prefetcher,
    stack: BranchStack,
    machine: MachineParams,
    hierarchy=None,
) -> RunResult:
    """One record at a time through ``stack`` and ``prefetcher``."""
    n = len(trace)
    warmup_end = int(n * machine.warmup_fraction)
    hierarchy = hierarchy or MemoryHierarchy(machine.hierarchy)
    mshr = MSHRFile(machine.mshr_entries)
    backend_ipc = machine.backend_ipc
    queue_cap = float(machine.decode_queue_instrs)
    penalty = machine.branch_mispredict_penalty
    blocks = trace.blocks_list
    instr_counts = trace.instrs_list
    kinds = trace.branch_kind_list

    prepare_trace = getattr(scheme, "prepare_trace", None)
    if prepare_trace is not None:
        prepare_trace(trace)

    cycles = queue = 0.0
    demand_misses = late_prefetch = prefetches_issued = instructions = 0
    mispredicted = 0
    base_cycles = 0.0
    base_misses = base_late = base_issued = base_instr = base_mispred = 0

    def deliver(i: int, now: float) -> None:
        """Land every prefetch fill completed by ``now`` in the scheme."""
        for done in mshr.drain(now):
            scheme.prefetch_fill(done, i, int(now))

    for i in range(n):
        if i == warmup_end:
            base_cycles = cycles
            base_misses = demand_misses
            base_late = late_prefetch
            base_issued = prefetches_issued
            base_instr = instructions
            base_mispred = mispredicted

        block = blocks[i]
        n_instr = instr_counts[i]
        instructions += n_instr

        # Resolve and train the transition that led here; charge flushes.
        if kinds[i] and stack.retire(i):
            mispredicted += 1
            cycles += penalty

        # One front-end cycle per record; the backend drains the queue.
        cycles += 1.0
        queue += n_instr - backend_ipc
        if queue > queue_cap:
            cycles += (queue - queue_cap) / backend_ipc
            queue = queue_cap
        elif queue < 0.0:
            queue = 0.0

        deliver(i, cycles)
        icycles = int(cycles)

        if not scheme.lookup(block, i, icycles):
            demand_misses += 1
            ready = mshr.ready_cycle(block)
            if ready is not None:
                # Late prefetch: pay only the remaining latency.
                mshr.cancel(block)
                latency = ready - cycles
                if latency < 0.0:
                    latency = 0.0
                late_prefetch += 1
            else:
                latency = float(hierarchy.access(block, i))
            prefetcher.on_demand_miss(block, icycles)
            # The decode-queue backlog hides part of the stall.
            stall = latency - queue / backend_ipc
            if stall > 0.0:
                cycles += stall
            queue -= latency * backend_ipc
            if queue < 0.0:
                queue = 0.0
            icycles = int(cycles)
            scheme.fill(block, i, icycles)
            # Fills that completed during the stall land before the
            # candidate loop can re-request them.
            deliver(i, cycles)

        prefetcher.observe_fetch(block, icycles)
        for candidate in prefetcher.candidates(i):
            if candidate in mshr or scheme.contains(candidate):
                continue
            latency = float(hierarchy.access(candidate, i))
            mshr.allocate(candidate, cycles + latency, cycles)
            prefetches_issued += 1

    finish_trace = getattr(scheme, "finish_trace", None)
    if finish_trace is not None:
        finish_trace()

    return RunResult(
        workload=trace.name,
        scheme_name=scheme.name,
        prefetcher_name=prefetcher.name,
        instructions=instructions - base_instr,
        accesses=n - warmup_end,
        cycles=cycles - base_cycles,
        demand_misses=demand_misses - base_misses,
        late_prefetch_misses=late_prefetch - base_late,
        prefetches_issued=prefetches_issued - base_issued,
        mispredicted_transitions=mispredicted - base_mispred,
        scheme=scheme,
    )


def live_run(trace: Trace, scheme, prefetcher: str, machine: MachineParams):
    """The result of a fresh stack and ``prefetcher`` driving ``scheme``."""
    stack = BranchStack(trace)
    pf = build_prefetcher(prefetcher, trace, stack, machine)
    return simulate_live(trace, scheme, pf, stack, machine)
