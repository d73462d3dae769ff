"""Precomputed frontend plans: the scheme-independent half of a run.

For a fixed (trace, frontend configuration) pair, everything the
decoupled front end does is independent of the L1i scheme under test:

* the branch stack's verdicts and training (BTB + TAGE state evolve
  only with the trace's resolved transitions),
* therefore the per-record mispredict flags the engine charges flush
  penalties for,
* and the FDP run-ahead frontier, which advances through *predictable*
  transitions and stalls at mispredicted ones — the engine filters its
  candidates against scheme/MSHR contents, but never feeds anything
  back into the stack or the frontier.

A figure sweep pushes ~120 (workload, scheme) pairs through
``simulate``; without a plan each pair replays identical BTB/TAGE
training and run-ahead walking.  A :class:`FrontendPlan` replays that
work once per (trace, frontend config) and flattens the outcome into
numpy arrays:

* ``mispredict[i]``     — 1 when the transition into record ``i``
  resolves as mispredicted (the engine charges the flush penalty);
* ``cum_mispredict[i]`` — mispredicted transitions among records
  ``< i`` (exclusive prefix sum, length n+1), so any warmup split can
  be reported without re-walking;
* ``cand_lo[i]/cand_hi[i]`` — the FDP candidate stream as half-open
  record-index spans: the candidates offered while fetch sits at ``i``
  are exactly ``trace.blocks[cand_lo[i]:cand_hi[i]]`` (run-ahead only
  ever walks the future path, so one shared candidate-block array — the
  trace's own ``blocks`` — backs every span).

:meth:`FrontendPlan.record_stream` derives what the engine's record
loop reads from a plan and its trace — a de-duplicated probe stream,
the per-record queue deltas and the instruction prefix sums — once per
(trace digest, backend width), and memoizes it on the plan.

The builder is event-driven: only records whose transition trains the
predictor (conditional / call / indirect kinds) touch the Python
BTB/TAGE machinery, in exactly the interleaving of a per-record replay
(run-ahead queries evaluate verdicts *before* the training records
between them retire — the memoisation the stack performs).  That naive
replay, and the run-ahead prefetcher it drives, live in
``tests/reference/`` as the builder's executable reference.
The sequential spans between those events — the vast majority of every
trace — are filled with numpy arithmetic.

Entangling prefetch cannot be planned: its table training consumes
live fetch/miss cycle times, which depend on the scheme.  Entangling
runs take the ``none`` plan for their branch flushes and the engine
drives the prefetcher object live in the same record loop.

Plans are cached by :data:`PLAN_STORE` (see :mod:`repro.common.artifacts`)
in the plan cache directory, keyed by a frontend-only fingerprint: trace
content digest, prefetcher kind, run-ahead depth, warmup split and the
(fixed) BTB/TAGE geometry.  A sweep builds each workload's plan once (a
parallel sweep in the pool task that warms the workload); workers
memory-map it instead of redoing the frontend work per (workload,
scheme) pair.

Traces cut from one walk (:mod:`repro.workloads.generator`) share one
plan: the replay is causal and run-ahead looks at most ``depth``
records ahead, so a prefix's plan is the longer plan's prefix with the
last ``depth`` spans clipped (:func:`cut_plan`).  Per walk, this module
keeps the plan of the walk's longest planned trace, which goes through
the store as any plan; every shorter trace's plan is cut from it in
memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.artifacts import ArtifactStore, entry_name
from repro.frontend.stack import BranchStack
from repro.uarch.params import MachineParams
from repro.workloads.trace import BranchKind, Trace

#: Bump when the array layout or replay semantics change; stale cache
#: entries then miss on fingerprint and are rebuilt.
PLAN_FORMAT = 1

#: The plan's bulk arrays, as the cache stores them.
PLAN_ARRAY_FIELDS = (
    "mispredict",
    "cum_mispredict",
    "cand_lo",
    "cand_hi",
)

#: Lazily-computed description of the stack geometry
#: :class:`BranchStack` is always built with (it takes no
#: overrides).  Derived from the live default structures so any
#: future change to BTB/TAGE defaults re-keys the plan cache
#: automatically instead of silently serving stale plans.
_stack_geometry_cache: Optional[str] = None


def _stack_geometry() -> str:
    global _stack_geometry_cache
    if _stack_geometry_cache is None:
        from repro.frontend.branch_predictors import TagePredictor
        from repro.frontend.btb import BranchTargetBuffer

        btb = BranchTargetBuffer()
        tage = TagePredictor()
        _stack_geometry_cache = (
            f"btb{btb.entries}x{btb.ways}"
            f"+tage{tage.num_tables}x{tage.table_bits}t{tage.tag_bits}"
            f"c{tage.counter_max}"
            f"h{'-'.join(map(str, tage.history_lengths))}"
            f"+base{tage.base.table_bits}c{tage.base.counter_max}"
        )
    return _stack_geometry_cache


def plan_kind(prefetcher: str) -> str:
    """The plan a ``prefetcher`` run takes: ``none`` for entangling."""
    return "none" if prefetcher == "entangling" else prefetcher


def _check_kind(prefetcher: str) -> None:
    """Plans come in two kinds; entangling runs take the ``none`` one."""
    if prefetcher not in ("fdp", "none"):
        raise ValueError(
            f"no {prefetcher!r} frontend plan: plans are 'fdp' or 'none' "
            "(entangling runs on the 'none' plan)"
        )


def _run_ahead(machine: MachineParams, prefetcher: str) -> int:
    """How many records past fetch the ``prefetcher`` plan looks."""
    return machine.ftq_depth_records if prefetcher == "fdp" else 0


@dataclass(frozen=True)
class RecordStream:
    """The scheme-independent per-record work of one (plan, trace) pair.

    * ``probes[i]`` — what record ``i`` probes: ``None`` (no candidate),
      the block of a single candidate, or a tuple of a span's distinct
      blocks in first-seen order.  A later duplicate in a span always
      finds its block in the MSHR file or in the scheme (allocating
      other candidates removes nothing, and ``contains`` is pure), so
      dropping it is exact.
    * ``deltas[i]`` — ``instrs[i] - backend_ipc``, the decode-queue
      change of record ``i`` before clamping.
    * ``cum_instrs[i]`` — instructions in records ``< i`` (exclusive
      prefix sums, length n+1).

    Block ints are the trace's own ``blocks_list`` objects and the
    deltas a handful of shared floats, so a stream boxes nothing new
    per record and holds no reference to the ``Trace``.
    """

    probes: List[object]
    deltas: List[float]
    cum_instrs: np.ndarray


def _span_probe(blocks: List[int], a: int, b: int) -> object:
    """What a record whose candidate span is ``blocks[a:b]`` probes."""
    if b <= a:
        return None
    if b - a == 1:
        return blocks[a]
    distinct = tuple(dict.fromkeys(blocks[a:b]))
    return distinct if len(distinct) > 1 else distinct[0]


def _derive_stream(
    plan: "FrontendPlan", trace: Trace, backend_ipc: float
) -> RecordStream:
    n = len(plan)
    blocks = trace.blocks_list
    lo = np.asarray(plan.cand_lo)
    hi = np.asarray(plan.cand_hi)
    width = hi - lo
    # Object-array gathers hand out the very objects they index, so the
    # stream shares the trace's block ints and the delta table's floats.
    # Single-candidate records pick their block, the rest the ``None``
    # past the end.
    shared = np.empty(n + 1, dtype=object)
    shared[:n] = blocks
    probes = shared[np.where(width == 1, lo, n)].tolist()
    multi = np.flatnonzero(width > 1)
    for i, a, b in zip(multi.tolist(), lo[multi].tolist(), hi[multi].tolist()):
        probes[i] = _span_probe(blocks, a, b)

    instrs = np.asarray(trace.instrs)
    top = int(instrs.max(initial=0))
    table = np.array([float(k) - backend_ipc for k in range(top + 1)], dtype=object)
    deltas = table[instrs].tolist()
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(instrs, dtype=np.int64, out=cum[1:])
    return RecordStream(probes, deltas, cum)


@dataclass
class FrontendPlan:
    """Flat-array replay of the frontend for one (trace, config) pair."""

    trace_name: str
    trace_digest: str
    prefetcher: str
    depth: int
    warmup_end: int
    fingerprint: str
    mispredict: np.ndarray      # uint8, n
    cum_mispredict: np.ndarray  # int64, n + 1 (exclusive prefix sums)
    cand_lo: np.ndarray         # int64, n (record-index span starts)
    cand_hi: np.ndarray         # int64, n (half-open span ends)
    # ((trace digest, backend_ipc), RecordStream) of the latest
    # ``record_stream`` call: keyed by digest, never by the Trace, so a
    # plan (which its trace holds) points back at no trace.
    _stream: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.mispredict)

    # -- hot-loop list views (one bulk conversion, as Trace does) -----------

    @property
    def mispredict_list(self) -> List[int]:
        # Not cached: one conversion per ``simulate`` costs ~1 ms at 160k
        # records, where a cached list would stay pinned by every plan a
        # walk or a trace keeps.
        return self.mispredict.tolist()

    @cached_property
    def cand_lo_list(self) -> List[int]:
        return self.cand_lo.tolist()

    @cached_property
    def cand_hi_list(self) -> List[int]:
        return self.cand_hi.tolist()

    # -- derived views ------------------------------------------------------

    def record_stream(self, trace: Trace, backend_ipc: float) -> RecordStream:
        """The record loop's input for ``trace`` at ``backend_ipc``.

        Derived once and memoized on the plan (one entry: a plan serves
        one trace, and a sweep one machine).  Sim threads that race
        here each derive the same stream, and the last one stored wins.
        """
        key = (trace.digest, backend_ipc)
        memo = self._stream
        if memo is not None and memo[0] == key:
            return memo[1]
        stream = _derive_stream(self, trace, backend_ipc)
        self._stream = (key, stream)
        return stream

    def mispredicted_after_warmup(self) -> int:
        """Post-warmup mispredicted transitions (what RunResult reports)."""
        n = len(self)
        return int(self.cum_mispredict[n] - self.cum_mispredict[self.warmup_end])

    # -- persistence: the codec entry points PLAN_STORE calls ---------------

    def meta(self) -> Dict[str, object]:
        return {
            "format": PLAN_FORMAT,
            "trace_name": self.trace_name,
            "trace_digest": self.trace_digest,
            "prefetcher": self.prefetcher,
            "depth": self.depth,
            "warmup_end": self.warmup_end,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_parts(cls, meta, arrays) -> "FrontendPlan":
        if int(meta["format"]) != PLAN_FORMAT:
            raise ValueError(f"plan format {meta['format']} != {PLAN_FORMAT}")
        n = len(arrays["mispredict"])
        if (
            len(arrays["cum_mispredict"]) != n + 1
            or len(arrays["cand_lo"]) != n
            or len(arrays["cand_hi"]) != n
        ):
            raise ValueError("inconsistent plan array lengths")
        return cls(
            trace_name=str(meta["trace_name"]),
            trace_digest=str(meta["trace_digest"]),
            prefetcher=str(meta["prefetcher"]),
            depth=int(meta["depth"]),
            warmup_end=int(meta["warmup_end"]),
            fingerprint=str(meta["fingerprint"]),
            mispredict=arrays["mispredict"],
            cum_mispredict=arrays["cum_mispredict"],
            cand_lo=arrays["cand_lo"],
            cand_hi=arrays["cand_hi"],
        )

    def save(self, path: Path) -> None:
        PLAN_STORE.save(self, path)

    @classmethod
    def load(cls, path: Path) -> "FrontendPlan":
        return PLAN_STORE.read_npz(path)

    @classmethod
    def load_mmap(cls, dirpath: Path) -> "FrontendPlan":
        return PLAN_STORE.read_sidecar(dirpath)


# -- fingerprinting ------------------------------------------------------------


def frontend_fingerprint(
    trace: Trace, machine: MachineParams, prefetcher: str
) -> str:
    """Hash of everything the plan's content depends on — and nothing else.

    Deliberately *frontend-only*: cache geometry, hierarchy latencies,
    MSHR count and backend width don't appear, so one plan serves every
    scheme (and machine variant that only changes the backend/caches) a
    sweep throws at the workload.
    """
    _check_kind(prefetcher)
    blob = json.dumps(
        {
            "format": PLAN_FORMAT,
            "trace": trace.digest,
            "prefetcher": prefetcher,
            "depth": _run_ahead(machine, prefetcher),
            "warmup_fraction": machine.warmup_fraction,
            "stack": _stack_geometry(),
        },
        sort_keys=True,
    )
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _finish(
    trace: Trace,
    machine: MachineParams,
    prefetcher: str,
    depth: int,
    warmup_end: int,
    mispredict: np.ndarray,
    cand_lo: np.ndarray,
    cand_hi: np.ndarray,
) -> FrontendPlan:
    n = len(trace)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mispredict, out=cum[1:])
    return FrontendPlan(
        trace_name=trace.name,
        trace_digest=trace.digest,
        prefetcher=prefetcher,
        depth=depth,
        warmup_end=warmup_end,
        fingerprint=frontend_fingerprint(trace, machine, prefetcher),
        mispredict=mispredict,
        cum_mispredict=cum,
        cand_lo=cand_lo,
        cand_hi=cand_hi,
    )


# -- builders ------------------------------------------------------------------


def build_plan(
    trace: Trace, machine: MachineParams, prefetcher: str = "fdp"
) -> FrontendPlan:
    """Vectorized replay: Python only at predictor-training records.

    Transitions that train nothing (sequential flow and RAS-perfect
    returns) are always predictable and never change BTB/TAGE state, so
    the replay only steps the Python machinery at *training* records
    (conditional / call / indirect kinds), preserving the per-record
    interleaving of run-ahead verdict queries and retirement training.
    The all-sequential stretches in between — where the run-ahead
    frontier tracks ``i + depth`` with pure length-1 candidate spans, or
    sits parked at a mispredicted record — are filled with numpy.
    """
    _check_kind(prefetcher)
    n = len(trace)
    warmup_end = int(n * machine.warmup_fraction)
    depth = _run_ahead(machine, prefetcher)
    stack = BranchStack(trace)
    kinds = trace.branch_kind
    mispredict = np.zeros(n, dtype=np.uint8)
    cand_lo = np.zeros(n, dtype=np.int64)
    cand_hi = np.zeros(n, dtype=np.int64)

    training = (kinds != BranchKind.SEQUENTIAL) & (kinds != BranchKind.RETURN)
    events = np.nonzero(training)[0]
    n_events = len(events)
    retire = stack.retire
    predictable = stack.predictable

    if prefetcher == "none":
        # No run-ahead: verdicts are first evaluated at retirement.
        for e in events.tolist():
            if retire(e):
                mispredict[e] = 1
        return _finish(
            trace, machine, prefetcher, depth, warmup_end, mispredict, cand_lo, cand_hi
        )

    events_list = events.tolist()
    last = n - 1
    ra = 1          # next record the run-ahead will examine
    ev_idx = 0      # next training record awaiting retirement
    i = 0
    # Tracking stretches [lo, hi): the frontier sits at i + depth and
    # every span is the single record there.  Filled in one pass below.
    track_lo: List[int] = []
    track_hi: List[int] = []

    def advance_one(i: int, ra: int) -> Tuple[int, int, int, bool]:
        """Frontier advance for one record; returns (ra, lo, hi, stalled).

        Mirrors the reference ``FetchDirectedPrefetcher.candidates``
        (``tests/reference/fdp.py``) exactly, but
        jumps from one training record to the next instead of walking
        the always-predictable records between them.
        """
        start = ra if ra > i else i + 1
        limit = i + depth
        if limit > last:
            limit = last
        if start > limit:
            return start, 0, 0, False
        k = bisect_left(events_list, start)
        while True:
            q = events_list[k] if k < n_events else n
            if q > limit:
                return limit + 1, start, limit + 1, False
            if not predictable(q):
                return q, start, q, True
            k += 1

    while i < n:
        next_ev = events_list[ev_idx] if ev_idx < n_events else n
        if i == next_ev:
            # Training record: retire (training the stack), then advance.
            if retire(i):
                mispredict[i] = 1
            ev_idx += 1
            ra, lo, hi, _ = advance_one(i, ra)
            if hi > lo:
                cand_lo[i] = lo
                cand_hi[i] = hi
            i += 1
            continue

        # All-sequential stretch [i, seg_end): no retirements, so stack
        # state is frozen and the frontier dynamics are closed-form
        # between verdict queries.
        seg_end = next_ev
        while i < seg_end:
            new_ra, lo, hi, stalled = advance_one(i, ra)
            if hi > lo:
                cand_lo[i] = lo
                cand_hi[i] = hi
            ra = new_ra
            i += 1
            if stalled:
                # Parked at a mispredicted training record, which lies at
                # or beyond seg_end: every span until then is empty.
                i = seg_end
                break
            if i >= seg_end:
                break
            # Next training record at/after the frontier; until the
            # window reaches it the frontier tracks i + depth exactly.
            k = bisect_left(events_list, ra)
            q = events_list[k] if k < n_events else n
            j_end = seg_end if q >= n else min(seg_end, q - depth)
            if j_end > i:
                track_lo.append(i)
                track_hi.append(j_end)
                tail = (j_end - 1) + depth
                if tail > last:
                    tail = last
                if tail + 1 > ra:
                    ra = tail + 1
                i = j_end

    if track_lo:
        # Stretches are disjoint, so the running sum is 1 exactly inside
        # them; spans whose record lies past the trace stay empty.
        edges = np.zeros(n + 1, dtype=np.int8)
        edges[track_lo] += 1
        edges[track_hi] -= 1
        ks = np.flatnonzero(np.cumsum(edges[:n], dtype=np.int8))
        ks = ks[ks + depth <= last]
        cand_lo[ks] = ks + depth
        cand_hi[ks] = ks + depth + 1

    return _finish(
        trace, machine, prefetcher, depth, warmup_end, mispredict, cand_lo, cand_hi
    )


# -- caching -------------------------------------------------------------------


#: Full-length plans and their record streams are tens of MB: each
#: lives only as long as a trace it plans (or a walk) keeps it.
PLAN_STORE = ArtifactStore(
    "plan",
    FrontendPlan,
    PLAN_ARRAY_FIELDS,
    cache_env="REPRO_PLAN_CACHE",
    cache_subdir="plans",
    scalar_meta=True,
)

clear_plan_memo = PLAN_STORE.clear_memo

#: Per walk (:class:`repro.workloads.generator.Walk`), the plan of its
#: longest planned trace by (prefetcher, run-ahead depth).  Weakly
#: keyed: an entry lives as long as the walk memo keeps its walk.
_walk_plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: Sweep-service simulation threads plan concurrently.
_walk_plans_lock = threading.Lock()


def _new_walk_plans_lock() -> None:
    # A fork while another thread holds the lock would hand the child a
    # lock nobody will release.
    global _walk_plans_lock
    _walk_plans_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_walk_plans_lock)


def cached_plan(
    trace: Trace,
    machine: MachineParams,
    prefetcher: str = "fdp",
    use_disk: Optional[bool] = None,
) -> FrontendPlan:
    """``trace``'s plan for a frontend config, cut or kept by the trace.

    A trace cut from a walk (``trace.walk``, see
    :mod:`repro.workloads.generator`) shares one plan with every other
    trace of that walk: :data:`_walk_plans` keeps the plan of the walk's
    longest planned trace per frontend config, and a shorter trace's plan is
    :func:`cut_plan` from it, never built, loaded or saved.  Every other
    plan is served by :data:`PLAN_STORE` and kept by the trace, record
    stream and all; ``use_disk=False`` (or ``REPRO_NO_DISK_CACHE=1``)
    keeps it off the disk.  An entry whose fingerprint mismatches (a
    PLAN_FORMAT bump, a regenerated trace) is discarded and rebuilt.
    """
    fingerprint = frontend_fingerprint(trace, machine, prefetcher)
    walk = trace.walk
    if walk is not None:
        key = (prefetcher, _run_ahead(machine, prefetcher))
        with _walk_plans_lock:
            longest = _walk_plans.get(walk, {}).get(key)
        if longest is not None and len(longest) >= len(trace):
            if longest.fingerprint == fingerprint:
                return longest
            return cut_plan(longest, trace, machine)
    plan = PLAN_STORE.for_trace(
        trace,
        entry_name(trace.name, fingerprint),
        lambda: build_plan(trace, machine, prefetcher),
        fingerprint=fingerprint,
        use_disk=use_disk,
    )
    if walk is not None:
        with _walk_plans_lock:
            plans = _walk_plans.setdefault(walk, {})
            kept = plans.get(key)
            if kept is None or len(kept) < len(plan):
                plans[key] = plan
    return plan


def cut_plan(
    longest: FrontendPlan, trace: Trace, machine: MachineParams
) -> FrontendPlan:
    """The plan of ``trace``, a prefix of ``longest``'s trace.

    FDP run-ahead looks at most ``depth`` records ahead, and a verdict
    it evaluates for a record past the cut only runs once every verdict
    before the cut is settled.  So a prefix's mispredict flags are the
    longest plan's, and its candidate spans are too, except that the
    last ``depth`` spans stop at the cut.  Arrays are views of
    ``longest`` (the clipped spans copies).  The record stream, when
    ``longest`` holds one for this machine, is its stream sliced with
    the clipped tail re-derived.  A cut never builds.
    """
    prefetcher = longest.prefetcher
    n = len(trace)
    tail = max(n - longest.depth, 0)
    cand_lo = np.array(longest.cand_lo[:n])
    cand_hi = np.array(longest.cand_hi[:n])
    lo, hi = cand_lo[tail:], cand_hi[tail:]
    np.minimum(hi, n, out=hi)
    empty = hi <= lo
    lo[empty] = 0
    hi[empty] = 0
    plan = FrontendPlan(
        trace_name=trace.name,
        trace_digest=trace.digest,
        prefetcher=prefetcher,
        depth=longest.depth,
        warmup_end=int(n * machine.warmup_fraction),
        fingerprint=frontend_fingerprint(trace, machine, prefetcher),
        mispredict=longest.mispredict[:n],
        cum_mispredict=longest.cum_mispredict[: n + 1],
        cand_lo=cand_lo,
        cand_hi=cand_hi,
    )
    backend_ipc = machine.backend_ipc
    memo = longest._stream
    if memo is not None and memo[0] == (longest.trace_digest, backend_ipc):
        whole = memo[1]
        probes = whole.probes[:n]
        blocks = trace.blocks[tail:n].tolist()
        for i, a, b in zip(range(tail, n), lo.tolist(), hi.tolist()):
            probes[i] = _span_probe(blocks, a - tail, b - tail)
        stream = RecordStream(probes, whole.deltas[:n], whole.cum_instrs[: n + 1])
        plan._stream = ((plan.trace_digest, backend_ipc), stream)
    return plan
