"""The front-end timing engine.

A fluid-model decoupled front-end: fetch delivers one record per cycle
into the decode queue; the backend drains ``backend_ipc`` instructions
per cycle; i-cache misses stall fetch for the hierarchy latency minus
what the queue backlog hides; mispredicted branches flush; prefetchers
(FDP run-ahead or entangling) inject fills through the MSHR file.  Only
the front end, where an i-cache policy acts, is modelled in detail; the
backend is a constant-rate drain.  One record loop serves every run:
branch flushes and FDP candidates come from a precomputed frontend
plan, and the entangling prefetcher, the one frontend part that
depends on the scheme, runs live on the ``none`` plan.

The engine is scheme-agnostic: anything implementing the L1I scheme
protocol (``lookup`` / ``fill`` / ``prefetch_fill`` / ``contains``) can
be measured.  Statistics honour the paper's methodology: the first
``warmup_fraction`` of the trace warms all structures and is excluded
from reported numbers (Section IV-A).
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.mem.oracle import NextUseOracle
from repro.uarch.params import MachineParams
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # avoid an import cycle at runtime
    from repro.frontend.plan import FrontendPlan


class L1IScheme(Protocol):
    """The instruction-supply scheme under test.

    Beyond the four required methods, the engine looks up three
    optional hooks with ``getattr`` and skips any a scheme lacks:

    * ``prepare_trace(trace)`` — called once before the record loop of
      every (possibly resumed) run, on the scheme the loop drives; must
      be pure and idempotent.
    * ``finish_trace()`` — called once after the record loop; flushes
      any counters the scheme defers (a scheme that defers them flushes
      them when pickled too, so checkpoint captures see them).
    * ``repeat_hits(block, count, last_t)`` — stands in for ``count``
      further ``lookup(block, t, cycle)`` calls, the last at record
      ``last_t``.  The engine calls it only when ``block`` hit on
      its latest real ``lookup`` and the scheme has seen no other call
      since, so each of those lookups is a known hit on the block that
      is already most recent.  The hook must leave the scheme in exactly
      the state a checkpoint would capture after those ``count``
      lookups.  Pure
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
    calls each hook.  It rides in engine checkpoints with the scheme.
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

#: The ``mode`` tag of every engine checkpoint.  States of an older
#: engine (``"live"``: the stack-driven loop; ``"planned"``: one
#: ``save_state()`` dict per collaborator) are rejected.
_MODE = "pickled"


def _trace_ref():
    """Stands in for the run's trace in a capture."""
    raise pickle.UnpicklingError("a trace reference resolves only on resume")


def _oracle_ref():
    """Stands in for the run's next-use oracle in a capture."""
    raise pickle.UnpicklingError("an oracle reference resolves only on resume")


class _GraphPickler(pickle.Pickler):
    """Pickles a run's collaborators, keeping what the run owns by reference.

    The trace and the next-use oracle are built from the run's identity,
    not from the simulation, so a capture stores each as a call to a
    placeholder (:func:`_trace_ref`, :func:`_oracle_ref`) and never its
    bytes.  ``reducer_override`` sees only objects the C pickler has no
    fast path for (ints, strs, lists, dicts, tuples and sets skip it),
    so the per-object Python call is paid by class instances alone.
    """

    def __init__(self, file, trace: Trace) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.trace = trace
        self.oracles = []

    def reducer_override(self, obj):
        if obj is self.trace:
            return _trace_ref, ()
        if isinstance(obj, NextUseOracle):
            self.oracles.append(obj)
            return _oracle_ref, ()
        return NotImplemented


def _held_oracle(scheme) -> Optional[NextUseOracle]:
    """The next-use oracle ``scheme`` holds, searched through attributes.

    Follows instance attributes only (no containers, classes or
    modules): oracle-backed schemes keep it on themselves or on a
    policy or decider they own.
    """
    stack, seen = [scheme], set()
    while stack:
        obj = stack.pop()
        if isinstance(obj, NextUseOracle):
            return obj
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        stack.extend(
            value
            for value in getattr(obj, "__dict__", {}).values()
            if type(value).__module__ != "builtins"
            and hasattr(value, "__dict__")
        )
    return None


class _GraphUnpickler(pickle.Unpickler):
    """Loads a capture, resolving its references to this run's objects."""

    def __init__(self, file, trace: Trace, scheme) -> None:
        super().__init__(file)
        self.trace = trace
        self.scheme = scheme

    def find_class(self, module, name):
        if module == __name__ and name == "_trace_ref":
            return lambda: self.trace
        if module == __name__ and name == "_oracle_ref":
            return self._fresh_oracle
        return super().find_class(module, name)

    def persistent_load(self, pid):
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    def _fresh_oracle(self) -> NextUseOracle:
        oracle = _held_oracle(self.scheme)
        if oracle is None:
            raise ValueError(
                "resume state references a next-use oracle; the "
                "scheme passed in has none"
            )
        return oracle


def _restore(
    resume: Optional[dict], parts: dict, trace: Trace, cum_instrs
) -> tuple:
    """``(start, counters, parts)`` for a run, unpickling ``resume``.

    ``parts`` maps each state key to the fresh collaborator passed in
    (scheme, MSHRs, hierarchy, and the prefetcher when one runs);
    without a resume state the run starts fresh at record 0 with them.
    A resume returns the collaborators unpickled from the state
    instead, their trace and oracle references resolved to ``trace``
    and to the oracle of the fresh scheme.  ``cum_instrs`` are the
    trace's instruction prefix sums: a state whose ``instructions``
    counter differs from them at its ``next_record`` was saved from
    another trace and is rejected.
    """
    if resume is None:
        return 0, _FRESH_COUNTERS, parts
    if resume.get("mode") != _MODE:
        raise ValueError(
            f"resume state is {resume.get('mode')!r}; this engine resumes "
            f"only {_MODE!r} states"
        )
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
    restored = _GraphUnpickler(
        io.BytesIO(resume["graph"]), trace, parts["scheme"]
    ).load()
    if restored.keys() != parts.keys():
        raise ValueError("resume state and run disagree on a live prefetcher")
    if type(restored["scheme"]) is not type(parts["scheme"]):
        raise ValueError(
            f"resume state holds a {type(restored['scheme']).__name__}, "
            f"the run passed a {type(parts['scheme']).__name__}"
        )
    return start, tuple(counters[k] for k in _COUNTER_FIELDS), restored


def _capture(i: int, counters: tuple, parts: dict, trace: Trace) -> dict:
    """The engine state before record ``i``: what ``_restore`` takes.

    One pickle of every collaborator keeps the aliasing between them
    (a cache's set dicts and the flat twins' views of them, a policy
    and its cache's bound ``on_hit``) and detaches the capture from
    the live objects.
    """
    buffer = io.BytesIO()
    _GraphPickler(buffer, trace).dump(parts)
    return {
        "mode": _MODE,
        "next_record": i,
        "counters": dict(zip(_COUNTER_FIELDS, counters)),
        "graph": buffer.getvalue(),
    }


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
    bit-identical to single-pass, ``tests/test_state_roundtrip.py`` the
    capture contract; the shard ledger in :mod:`repro.harness.shards`
    persists the captures): with ``checkpoint_every > 0`` the engine
    captures its full warm state — the loop counters plus one pickle of
    the scheme, MSHRs, hierarchy and live prefetcher — at the top of
    each iteration whose absolute index is a multiple of
    ``checkpoint_every`` (state == completion of records ``0..i-1``),
    *before* the warmup snapshot branch so a resume landing exactly on
    ``warmup_end`` re-derives the base counters identically.  The
    pickle holds the trace and the next-use oracle by reference only.
    ``on_checkpoint(state)`` receives each capture; returning truthy
    stops the run early and ``simulate`` returns None.  ``resume``
    takes such a state and continues its unpickled collaborators from
    its ``next_record``, with their references resolved to ``trace``
    and to the oracle of the ``scheme`` passed in; callers pass a fresh
    scheme and prefetcher built the way the captured ones were, and
    the result's ``scheme`` is the resumed one.  A ``resume`` whose
    ``instructions`` counter is not the trace's prefix sum at its
    ``next_record`` was saved from another trace, and one whose scheme
    is not of the class passed in belongs to another run: both raise
    ``ValueError``.  Checkpoints share the one next-event compare with
    the warmup snapshot, so the default ``checkpoint_every=0`` costs
    the loop nothing.
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
    if prefetcher is not None and plan.prefetcher != "none":
        raise ValueError(
            f"a live prefetcher runs on the 'none' plan, not on a "
            f"{plan.prefetcher!r} plan with its own candidate stream"
        )

    backend_ipc = machine.backend_ipc
    queue_cap = float(machine.decode_queue_instrs)
    penalty = machine.branch_mispredict_penalty

    mispredict = plan.mispredict_list
    blocks = trace.blocks_list
    stream = plan.record_stream(trace, backend_ipc)
    probes = stream.probes
    deltas = stream.deltas
    cum_instrs = stream.cum_instrs

    # Loop counters, plus the base_* snapshots taken when warmup ends.
    # ``instructions`` is not stepped per record: it is ``cum_instrs[i]``
    # wherever a capture, the warmup snapshot or the result reads it.
    # A resume replaces every collaborator with its unpickled copy, so
    # nothing below binds to one before this.
    parts = {
        "scheme": scheme,
        "mshr": MSHRFile(machine.mshr_entries),
        "hierarchy": hierarchy or MemoryHierarchy(machine.hierarchy),
    }
    if prefetcher is not None:
        parts["prefetcher"] = prefetcher
    start, counters, parts = _restore(resume, parts, trace, cum_instrs)
    (cycles, queue, demand_misses, late_prefetch, prefetches_issued,
     _, base_cycles, base_misses, base_late, base_issued,
     base_instr) = counters
    scheme = parts["scheme"]
    mshr = parts["mshr"]
    hierarchy = parts["hierarchy"]
    prefetcher = parts.get("prefetcher")
    pf_candidates = pf_observe_fetch = pf_on_demand_miss = None
    if prefetcher is not None:
        pf_candidates = prefetcher.candidates
        pf_observe_fetch = prefetcher.observe_fetch
        pf_on_demand_miss = prefetcher.on_demand_miss

    # Schemes that consume the shared replacement pre-pass bind their
    # per-record arrays here (pure, idempotent; a capture leaves them
    # out, so a resumed scheme binds them again).
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
    next_ready = mshr.next_ready

    # Bound after ``prepare_trace``: the flat policy twins re-close
    # their protocol methods over the pre-pass views it binds.
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
                ), parts, trace)
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
    # them here (a checkpoint capture's pickle flushes them too).
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
