"""The front-end timing engine.

A fluid-model decoupled front-end (DESIGN.md section 2): fetch delivers
one record per cycle into the decode queue; the backend drains
``backend_ipc`` instructions per cycle; i-cache misses stall fetch for
the hierarchy latency minus what the queue backlog hides; mispredicted
branches flush; prefetchers (FDP run-ahead or entangling) inject fills
through the MSHR file.  One record loop serves every run: branch flushes
and FDP candidates come from a precomputed frontend plan, and the
entangling prefetcher, the one frontend part that depends on the
scheme, runs live on the ``none`` plan.

The engine is scheme-agnostic: anything implementing the L1I scheme
protocol (``lookup`` / ``fill`` / ``prefetch_fill`` / ``contains``) can
be measured.  Statistics honour the paper's methodology: the first
``warmup_fraction`` of the trace warms all structures and is excluded
from reported numbers (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.uarch.params import MachineParams
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # avoid an import cycle at runtime
    from repro.frontend.plan import FrontendPlan


class L1IScheme(Protocol):
    """The instruction-supply scheme under test.

    Beyond the four required methods, the engine looks up three
    optional hooks with ``getattr`` and skips any a scheme lacks:

    * ``prepare_trace(trace)`` — called once before the record loop of
      every (possibly resumed) run; must be pure and idempotent.
    * ``finish_trace()`` — called once after the record loop; flushes
      any counters the scheme defers (``save_state`` flushes them at
      checkpoints instead).
    * ``repeat_hits(block, count, last_t)`` — stands in for ``count``
      further ``lookup(block, t, cycle)`` calls, the last at record
      ``last_t``.  The engine calls it only when ``block`` hit on
      its latest real ``lookup`` and the scheme has seen no other call
      since, so each of those lookups is a known hit on the block that
      is already most recent.  The hook must leave exactly the
      ``save_state()`` those ``count`` lookups would leave.  Pure
      bookkeeping qualifies, and so does training on every hit when
      the run's training has a closed form (GHRP, Harmony); a scheme
      without one leaves the hook out and keeps one lookup per record.
    """

    name: str

    def lookup(self, block: int, t: int, cycle: int) -> bool: ...

    def fill(self, block: int, t: int, cycle: int) -> None: ...

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None: ...

    def contains(self, block: int) -> bool: ...


class Prefetcher(Protocol):
    """A live prefetch engine (entangling) driving fills through the MSHRs.

    Runs on the ``none`` frontend plan; ``simulate`` documents when it
    calls each hook.  Its ``save_state``/``load_state`` ride in engine
    checkpoints.
    """

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
)

#: Counter values of a run that starts at record 0.
_FRESH_COUNTERS = (0.0, 0.0, 0, 0, 0, 0, 0.0, 0, 0, 0, 0)

#: The ``mode`` tag of every engine checkpoint.  States an older engine
#: saved from its stack-driven loop carry ``"live"`` and are rejected.
_MODE = "planned"


def _restore(resume: Optional[dict], parts: dict, cum_instrs) -> tuple:
    """``(start, counters)`` for a run, loading ``resume`` into ``parts``.

    ``parts`` maps each state key to its collaborator (scheme, MSHRs,
    hierarchy, and the prefetcher when one runs); without a resume
    state the run starts fresh at record 0.  ``cum_instrs`` are the
    trace's instruction prefix sums: a state whose ``instructions``
    counter differs from them at its ``next_record`` was saved from
    another trace and is rejected.
    """
    if resume is None:
        return 0, _FRESH_COUNTERS
    if resume.get("mode") != _MODE:
        raise ValueError(
            f"resume state is {resume.get('mode')!r}; this engine resumes "
            f"only {_MODE!r} states"
        )
    if ("prefetcher" in resume) != ("prefetcher" in parts):
        raise ValueError("resume state and run disagree on a live prefetcher")
    start = resume["next_record"]
    counters = resume["counters"]
    if not 0 <= start < len(cum_instrs):
        raise ValueError(
            f"resume state starts at record {start}; the trace has "
            f"{len(cum_instrs) - 1}"
        )
    if counters["instructions"] != cum_instrs[start]:
        raise ValueError(
            f"resume state counts {counters['instructions']} instructions "
            f"before record {start}, the trace {int(cum_instrs[start])}: "
            "it was saved from another trace"
        )
    for key, part in parts.items():
        part.load_state(resume[key])
    return start, tuple(counters[k] for k in _COUNTER_FIELDS)


def _capture(i: int, counters: tuple, parts: dict) -> dict:
    """The engine state before record ``i``: what ``_restore`` takes."""
    state = {
        "mode": _MODE,
        "next_record": i,
        "counters": dict(zip(_COUNTER_FIELDS, counters)),
    }
    for key, part in parts.items():
        state[key] = part.save_state()
    return state


def simulate(
    trace: Trace,
    scheme: L1IScheme,
    *,
    machine: Optional[MachineParams] = None,
    plan: Optional["FrontendPlan"] = None,
    prefetcher: Optional[Prefetcher] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    resume: Optional[dict] = None,
    checkpoint_every: int = 0,
    on_checkpoint=None,
) -> Optional[RunResult]:
    """Run ``scheme`` over ``trace`` and return post-warmup measurements.

    The frontend comes from ``plan``, a precomputed
    :class:`~repro.frontend.plan.FrontendPlan`: the engine reads the
    per-record mispredict flags and the FDP candidates (the plan's
    probe stream, below) from flat lists and touches no branch-stack
    code at all.  The entangling
    prefetcher trains on scheme-dependent miss timing, so it cannot be
    planned; it runs as a live ``prefetcher`` object on the ``none``
    plan (which supplies the mispredict flags and no spans).  The engine
    calls its ``on_demand_miss`` on every demand miss, before the stall
    is charged, its ``observe_fetch`` after every real ``lookup`` (on a
    batched repeat it would be a no-op: the block is the one it last
    saw), and its ``candidates`` on every record that has no plan span.
    fdp and none runs pass no prefetcher and pay one ``is None`` test
    per record without a span (plus one per demand miss).
    ``tests/reference/engine.py`` is the readable reference: a branch
    stack and a prefetcher object stepped on every record;
    ``tests/test_frontend_plan.py`` pins the two bit-identical across
    schemes, branch kinds, workload profiles and prefetchers.

    The loop body runs once per fetch record — two million times for a
    full-length sweep pair — so everything that does not depend on the
    scheme is done before it, once per (plan, trace):
    :meth:`~repro.frontend.plan.FrontendPlan.record_stream` derives and
    memoizes on the plan a *probe stream* (per record ``None``, the
    single candidate's block, or a tuple of a span's distinct blocks:
    the ``plan.cand_lo/cand_hi`` spans over the trace's own blocks, as
    FDP run-ahead only ever walks the future fetch path), the queue
    deltas ``instrs - backend_ipc``, and the instruction prefix sums
    that give the ``instructions`` counter wherever it is read (a
    capture, the warmup snapshot, the result) instead of a per-record
    add.  The loop itself reads four flat lists per record (blocks,
    mispredict flags, deltas, probes); scheme/prefetcher/MSHR methods
    are bound to locals; MSHR membership is two dict lookups on the
    file's ``pending``/``deferred`` tables; one compare per record finds
    the next event (a checkpoint or the warmup snapshot); and the MSHR
    drain is gated on the file's running *next-ready cycle* instead of
    probing its occupancy every record.

    The loop calls the scheme and the MSHR file only when their answer
    can have changed.  Fetch is bursty: most records repeat the
    previous record's block.  Two skip rules, each exact by
    construction:

    * **Repeat-hit batching** (schemes with a ``repeat_hits`` hook).
      When record ``i`` fetches the block whose latest real ``lookup``
      hit, and the engine has made no scheme call since (no drain
      delivered a fill, so no ``prefetch_fill``; no miss, so no
      ``fill``; candidate probes only call the pure ``contains``), the
      lookup is a known hit on the most recent block.  The engine
      skips it and hands the whole run to ``repeat_hits`` in one call
      before the next scheme call, checkpoint capture or
      ``finish_trace``.
    * **Probe de-duplication.**  A probed candidate ends up in the MSHR
      file or in the scheme.  Only a delivering drain, a miss (fill,
      cancel) or a real ``lookup`` can take it out of both; allocating
      other candidates never removes an entry (a full file hands the
      displaced fill over to ``deferred``).  So a later duplicate
      within one span would ``continue`` — the probe stream drops it —
      and while records are batched repeats with no delivering drain,
      a single-candidate probe equal to the last probed candidate
      would ``continue`` too, and the engine skips it.

    Checkpoint/resume (``tests/test_checkpoint.py`` pins chunked runs
    bit-identical to single-pass; the shard ledger in
    :mod:`repro.harness.shards` persists the captures): with
    ``checkpoint_every > 0`` the engine captures its full warm state —
    loop counters plus the ``save_state()`` of every stateful
    collaborator, the prefetcher included — at the top of each
    iteration whose absolute index is a multiple of ``checkpoint_every``
    (state == completion of records ``0..i-1``), *before* the warmup
    snapshot branch so a resume landing exactly on ``warmup_end``
    re-derives the base counters identically.  ``on_checkpoint(state)``
    receives each capture; returning truthy stops the run early and
    ``simulate`` returns None.  ``resume`` takes such a state and
    continues from its ``next_record``; the engine restores its own
    collaborators (it constructs the MSHR/hierarchy), so callers only
    rebuild the scheme and prefetcher fresh from their factories.  A
    ``resume`` whose ``instructions`` counter is not the trace's
    prefix sum at its ``next_record`` was saved from another trace and
    raises ``ValueError``.  Checkpoints share the one next-event
    compare with the warmup snapshot, so the default
    ``checkpoint_every=0`` costs the loop nothing.
    """
    if machine is None:
        raise TypeError("simulate() requires machine parameters")
    if plan is None:
        raise TypeError(
            "simulate() requires a frontend plan "
            "(repro.frontend.plan.cached_plan builds one)"
        )
    n = len(trace)
    warmup_end = int(n * machine.warmup_fraction)
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
    hierarchy = hierarchy or MemoryHierarchy(machine.hierarchy)
    mshr = MSHRFile(machine.mshr_entries)
    parts = {"scheme": scheme, "mshr": mshr, "hierarchy": hierarchy}
    pf_candidates = pf_observe_fetch = pf_on_demand_miss = None
    if prefetcher is not None:
        if plan.prefetcher != "none":
            raise ValueError(
                f"a live prefetcher runs on the 'none' plan, not on a "
                f"{plan.prefetcher!r} plan with its own candidate stream"
            )
        parts["prefetcher"] = prefetcher
        pf_candidates = prefetcher.candidates
        pf_observe_fetch = prefetcher.observe_fetch
        pf_on_demand_miss = prefetcher.on_demand_miss

    backend_ipc = machine.backend_ipc
    queue_cap = float(machine.decode_queue_instrs)
    penalty = machine.branch_mispredict_penalty

    mispredict = plan.mispredict_list
    blocks = trace.blocks_list
    stream = plan.record_stream(trace, backend_ipc)
    probes = stream.probes
    deltas = stream.deltas
    cum_instrs = stream.cum_instrs

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
    in_flight = mshr.pending
    handed_over = mshr.deferred

    # Loop counters, plus the base_* snapshots taken when warmup ends.
    # ``instructions`` is not stepped per record: it is ``cum_instrs[i]``
    # wherever a capture, the warmup snapshot or the result reads it.
    start, counters = _restore(resume, parts, cum_instrs)
    (cycles, queue, demand_misses, late_prefetch, prefetches_issued,
     _, base_cycles, base_misses, base_late, base_issued,
     base_instr) = counters
    next_ready = mshr.next_ready

    # Hoisted after the resume load on purpose: the flat policy twins
    # re-close their protocol methods over freshly loaded containers, so
    # binding these any earlier would drive stale closures.
    scheme_lookup = scheme.lookup
    scheme_fill = scheme.fill
    scheme_prefetch_fill = scheme.prefetch_fill
    scheme_contains = scheme.contains
    scheme_repeat_hits = getattr(scheme, "repeat_hits", None)
    batching = scheme_repeat_hits is not None
    # Skip state: the block whose last real lookup hit with no scheme
    # call since (-1: none), and the last single candidate probed with
    # nothing removed since (-1: none; every real lookup resets it, and
    # a record that drains a fill always makes one).  Every record
    # between two real lookups is a batched repeat, so the batch not yet
    # handed to the scheme is always records ``run_from .. i-1``, and
    # ``run_from > i`` holds exactly when record ``i`` made a real lookup.
    hit_block = probed = -1
    run_from = start

    # One compare per record finds both events: the next checkpoint
    # (the first multiple of ``checkpoint_every`` past ``start``) and
    # the warmup snapshot.  An event at ``n`` or later never fires.
    next_ckpt = (
        (start // checkpoint_every + 1) * checkpoint_every
        if checkpoint_every > 0 else n
    )
    next_event = min(next_ckpt, warmup_end if warmup_end >= start else n)

    for i in range(start, n):
        if i == next_event:
            if i == next_ckpt:
                next_ckpt += checkpoint_every
                if i > run_from:
                    scheme_repeat_hits(hit_block, i - run_from, i - 1)
                run_from = i
                hit_block = -1
                state = _capture(i, (
                    cycles, queue, demand_misses, late_prefetch,
                    prefetches_issued, int(cum_instrs[i]), base_cycles,
                    base_misses, base_late, base_issued, base_instr,
                ), parts)
                if on_checkpoint is not None and on_checkpoint(state):
                    return None
            if i == warmup_end:
                base_cycles = cycles
                base_misses = demand_misses
                base_late = late_prefetch
                base_issued = prefetches_issued
                base_instr = int(cum_instrs[i])
            next_event = min(next_ckpt, warmup_end if warmup_end > i else n)

        block = blocks[i]
        if mispredict[i]:
            cycles += penalty

        # One front-end cycle per fetch record; the backend drains the
        # queue meanwhile.  Overfull queues mean the backend is the
        # bottleneck: charge the extra drain time.
        cycles += 1.0
        queue += deltas[i]
        if queue > queue_cap:
            cycles += (queue - queue_cap) / backend_ipc
            queue = queue_cap
        elif queue < 0.0:
            queue = 0.0

        # Prefetch fills that have arrived land in the scheme.
        # ``int(cycles)`` only where a scheme call takes it: a batched
        # repeat makes none.
        if next_ready <= cycles:
            arrived = mshr_drain(cycles)
            if arrived:
                if i > run_from:
                    scheme_repeat_hits(hit_block, i - run_from, i - 1)
                run_from = i
                hit_block = -1
                icycles = int(cycles)
                for done in arrived:
                    scheme_prefetch_fill(done, i, icycles)
            next_ready = mshr.next_ready

        if block != hit_block:
            if i > run_from:
                scheme_repeat_hits(hit_block, i - run_from, i - 1)
            run_from = i + 1
            probed = -1
            if scheme_lookup(block, i, int(cycles)):
                if batching:
                    hit_block = block
            else:
                hit_block = -1
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
                if pf_on_demand_miss is not None:
                    pf_on_demand_miss(block, int(cycles))
                # The decode-queue backlog hides part of the stall.
                stall = latency - queue / backend_ipc
                if stall > 0.0:
                    cycles += stall
                queue -= latency * backend_ipc
                if queue < 0.0:
                    queue = 0.0
                icycles = int(cycles)
                scheme_fill(block, i, icycles)
                # The stall advanced ``cycles``: prefetch fills that
                # completed meanwhile must reach the scheme before the
                # candidate loop can re-request them.
                if next_ready <= cycles:
                    for done in mshr_drain(cycles):
                        scheme_prefetch_fill(done, i, icycles)
                    next_ready = mshr.next_ready

        probe = probes[i]
        if probe is None:
            if pf_candidates is not None:
                if run_from > i:
                    pf_observe_fetch(block, int(cycles))
                for candidate in pf_candidates(i):
                    if (candidate in in_flight or candidate in handed_over
                            or scheme_contains(candidate)):
                        continue
                    latency = float(hierarchy_access(candidate, i))
                    ready = mshr_allocate(candidate, cycles + latency, cycles)
                    if ready < next_ready:
                        next_ready = ready
                    prefetches_issued += 1
        elif probe != probed:
            if probe.__class__ is tuple:
                for candidate in probe:
                    if (candidate in in_flight or candidate in handed_over
                            or scheme_contains(candidate)):
                        continue
                    latency = float(hierarchy_access(candidate, i))
                    ready = mshr_allocate(candidate, cycles + latency, cycles)
                    if ready < next_ready:
                        next_ready = ready
                    prefetches_issued += 1
            else:
                probed = probe
                if not (probe in in_flight or probe in handed_over
                        or scheme_contains(probe)):
                    latency = float(hierarchy_access(probe, i))
                    ready = mshr_allocate(probe, cycles + latency, cycles)
                    if ready < next_ready:
                        next_ready = ready
                    prefetches_issued += 1

    if run_from < n:
        scheme_repeat_hits(hit_block, n - run_from, n - 1)

    # Schemes that defer counter updates into their fused hot path flush
    # them here (checkpoint captures flush inside save_state instead).
    finish_trace = getattr(scheme, "finish_trace", None)
    if finish_trace is not None:
        finish_trace()

    return RunResult(
        workload=trace.name,
        scheme_name=scheme.name,
        prefetcher_name=(
            plan.prefetcher if prefetcher is None else prefetcher.name
        ),
        instructions=int(cum_instrs[n]) - base_instr,
        accesses=n - warmup_end,
        cycles=cycles - base_cycles,
        demand_misses=demand_misses - base_misses,
        late_prefetch_misses=late_prefetch - base_late,
        prefetches_issued=prefetches_issued - base_issued,
        mispredicted_transitions=plan.mispredicted_after_warmup(),
        scheme=scheme,
    )
