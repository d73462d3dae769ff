"""Two-pass entangling plans: record the training stream once, replay it.

The entangling prefetcher is the one frontend component a
:class:`~repro.frontend.plan.FrontendPlan` cannot cover: its table
trains on *live miss timing* (which records miss, and at what cycle),
and both depend on the L1i scheme under test.  A sweep that keeps
entangling live pays the full per-record frontend — deque scans on
every miss, LRU-table probes on every fetch — for every (workload,
scheme) pair, while fdp/none schemes replay flat arrays.

This module closes that gap with a *scheme-coupled* two-pass plan:

* **Pass 1 (record)** — one live reference run per (workload, machine,
  reference scheme).  A :class:`RecordingEntanglingPrefetcher` rides
  along and captures the table's full training stream as flat arrays:

  - ``miss_rec`` / ``miss_cycle`` — the record index and cycle of every
    demand miss the reference scheme took (the table's training inputs);
  - ``ent_src`` / ``ent_dst`` — every source->destination entangling the
    table formed, in formation order;
  - ``cand_blocks`` + ``cand_lo``/``cand_hi`` — the prefetch issue
    stream: the candidates offered while fetch sat at record ``i`` are
    ``cand_blocks[cand_lo[i]:cand_hi[i]]`` (the plan's own flat
    candidate array — unlike FDP spans, entangled destinations are not
    slices of the trace's future path).

* **Pass 2 (replay)** — the engine's existing planned loop
  (:func:`repro.uarch.timing.simulate` with ``plan=``) consumes the
  recorded candidate stream through the same
  ``mispredict``/``cand_lo``/``cand_hi`` interface a FrontendPlan
  exposes; the mispredict stream itself is *scheme-independent*
  (entangling never queries the branch stack), so the plan composes
  with the cached ``"none"`` FrontendPlan rather than duplicating its
  arrays.

Because the recorded stream is scheme-coupled, a plan is only replayed
for the scheme it was recorded under.  The replay is **bit-identical**
to the live path (the engine filters the same raw candidate stream
against identical scheme/MSHR state; pinned by
``tests/test_entangling_plan.py``), and the recording run itself *is*
the first result — so a cold run costs one live simulation, exactly as
before, and every warm run is a fast flat-array replay.

Plans are cached by :data:`ENTANGLING_STORE` (see
:mod:`repro.common.artifacts`) as ``<workload>.<fingerprint>.ent.npz``
in the plan cache directory.  The fingerprint covers the trace content
digest, the *whole* machine configuration (recorded timing depends on
all of it), the reference scheme name, the entangling table geometry
and the branch-stack geometry; any mismatch discards and rebuilds the
entry.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.artifacts import ArtifactStore, entry_name
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import (
    FrontendPlan,
    _stack_geometry,
    build_plan,
    cached_plan,
)
from repro.frontend.stack import BranchStack
from repro.uarch.params import MachineParams
from repro.workloads.trace import Trace

#: Bump when the array layout or replay semantics change; stale cache
#: entries then miss on fingerprint and are rebuilt.
ENTANGLING_PLAN_FORMAT = 1

#: The plan's bulk arrays, as the cache stores them.
ENTANGLING_ARRAY_FIELDS = (
    "cand_blocks",
    "cand_lo",
    "cand_hi",
    "miss_rec",
    "miss_cycle",
    "ent_src",
    "ent_dst",
)

#: Reference-run scalars embedded in the plan (equivalence tests read
#: these without re-running pass 1).
REF_SCALAR_FIELDS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

class RecordingEntanglingPrefetcher(EntanglingPrefetcher):
    """An :class:`EntanglingPrefetcher` that logs its training stream.

    Overrides the three observation points — :meth:`on_demand_miss`
    (miss timing), :meth:`_entangle` (pairs actually formed) and
    :meth:`candidates` (the issue stream) — to append to flat Python
    lists, then delegates to the real implementation, so the recorded
    run's behaviour is bit-identical to an unrecorded live run.

    The record index of a miss is inferred rather than passed in: the
    engine calls :meth:`candidates` exactly once per record, *after*
    miss handling, so at the time of a miss the number of candidate
    calls made so far equals the current record index.
    """

    def __init__(self, trace: Trace, **kwargs) -> None:
        super().__init__(trace, **kwargs)
        self.rec_cand_blocks: List[int] = []
        self.rec_cand_lo: List[int] = []
        self.rec_cand_hi: List[int] = []
        self.rec_miss_rec: List[int] = []
        self.rec_miss_cycle: List[int] = []
        self.rec_ent_src: List[int] = []
        self.rec_ent_dst: List[int] = []

    def on_demand_miss(self, block: int, cycle: int) -> None:
        self.rec_miss_rec.append(len(self.rec_cand_lo))
        self.rec_miss_cycle.append(cycle)
        super().on_demand_miss(block, cycle)

    def _entangle(self, source: int, block: int) -> None:
        before = self.stats.entangled
        super()._entangle(source, block)
        if self.stats.entangled != before:
            self.rec_ent_src.append(source)
            self.rec_ent_dst.append(block)

    def candidates(self, i: int) -> List[int]:
        out = super().candidates(i)
        lo = len(self.rec_cand_blocks)
        if out:
            self.rec_cand_blocks.extend(out)
        self.rec_cand_lo.append(lo)
        self.rec_cand_hi.append(len(self.rec_cand_blocks))
        return out


@dataclass
class EntanglingPlan:
    """Recorded entangling training stream for one (trace, machine, scheme).

    Exposes the same replay interface as
    :class:`~repro.frontend.plan.FrontendPlan` (``mispredict_list``,
    ``cand_lo_list``/``cand_hi_list``, ``candidate_blocks_list``,
    ``mispredicted_after_warmup``), so the engine's planned loop drives
    either without branching.  The mispredict stream is delegated to
    ``base`` — the trace's cached ``"none"`` FrontendPlan — because
    entangling never queries the branch stack, making branch verdicts
    scheme-independent even in entangling runs.
    """

    trace_name: str
    trace_digest: str
    scheme: str              #: reference scheme the stream was recorded under
    machine_fingerprint: str
    warmup_end: int
    fingerprint: str
    ref_scalars: Dict[str, float]
    cand_blocks: np.ndarray  # int64, total issued candidates
    cand_lo: np.ndarray      # int64, n (span starts into cand_blocks)
    cand_hi: np.ndarray      # int64, n (half-open span ends)
    miss_rec: np.ndarray     # int64, one per reference demand miss
    miss_cycle: np.ndarray   # int64, cycle of each reference demand miss
    ent_src: np.ndarray      # int64, entangling sources, formation order
    ent_dst: np.ndarray      # int64, entangling destinations
    base: FrontendPlan = field(repr=False)  #: mispredict stream provider

    def __len__(self) -> int:
        return len(self.cand_lo)

    @property
    def prefetcher(self) -> str:
        return "entangling"

    # -- replay interface (FrontendPlan-compatible) -------------------------

    @property
    def mispredict_list(self) -> List[int]:
        return self.base.mispredict_list

    @cached_property
    def cand_lo_list(self) -> List[int]:
        return self.cand_lo.tolist()

    @cached_property
    def cand_hi_list(self) -> List[int]:
        return self.cand_hi.tolist()

    @cached_property
    def _cand_blocks_list(self) -> List[int]:
        return self.cand_blocks.tolist()

    def candidate_blocks_list(self, trace: Trace) -> List[int]:
        """The recorded candidate stream the replay spans index into."""
        return self._cand_blocks_list

    def mispredicted_after_warmup(self) -> int:
        return self.base.mispredicted_after_warmup()

    # -- persistence: the codec entry points ENTANGLING_STORE calls ---------

    def meta(self) -> Dict[str, object]:
        return {
            "format": ENTANGLING_PLAN_FORMAT,
            "fingerprint": self.fingerprint,
            "trace_name": self.trace_name,
            "trace_digest": self.trace_digest,
            "scheme": self.scheme,
            "machine_fingerprint": self.machine_fingerprint,
            "warmup_end": self.warmup_end,
            "records": len(self),
            "ref_scalars": self.ref_scalars,
        }

    @classmethod
    def from_parts(
        cls,
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        base: FrontendPlan,
    ) -> "EntanglingPlan":
        if int(meta["format"]) != ENTANGLING_PLAN_FORMAT:
            raise ValueError(
                f"entangling plan format {meta['format']} != "
                f"{ENTANGLING_PLAN_FORMAT}"
            )
        n = int(meta["records"])
        if len(arrays["cand_lo"]) != n or len(arrays["cand_hi"]) != n:
            raise ValueError("inconsistent entangling plan span lengths")
        total = int(arrays["cand_hi"][-1]) if n else 0
        if (
            len(arrays["cand_blocks"]) != total
            or len(arrays["miss_rec"]) != len(arrays["miss_cycle"])
            or len(arrays["ent_src"]) != len(arrays["ent_dst"])
        ):
            raise ValueError("inconsistent entangling plan array lengths")
        if len(base) != n or base.warmup_end != int(meta["warmup_end"]):
            raise ValueError("entangling plan does not match its base plan")
        return cls(
            trace_name=str(meta["trace_name"]),
            trace_digest=str(meta["trace_digest"]),
            scheme=str(meta["scheme"]),
            machine_fingerprint=str(meta["machine_fingerprint"]),
            warmup_end=int(meta["warmup_end"]),
            fingerprint=str(meta["fingerprint"]),
            ref_scalars=dict(meta["ref_scalars"]),
            base=base,
            **arrays,
        )

    def save(self, path: Path) -> None:
        ENTANGLING_STORE.save(self, path)

    @classmethod
    def load(cls, path: Path, base: FrontendPlan) -> "EntanglingPlan":
        return ENTANGLING_STORE.read_npz(path, base)

    @classmethod
    def load_mmap(cls, dirpath: Path, base: FrontendPlan) -> "EntanglingPlan":
        return ENTANGLING_STORE.read_sidecar(dirpath, base)


# -- fingerprinting ------------------------------------------------------------


_entangling_geometry_cache: Optional[str] = None


def _entangling_geometry() -> str:
    """Table geometry baked into every recorded stream.

    Derived from :class:`EntanglingPrefetcher`'s constructor defaults
    (the harness never overrides them), so a future geometry change
    re-keys the plan cache automatically instead of serving streams
    recorded under a different table.
    """
    global _entangling_geometry_cache
    if _entangling_geometry_cache is None:
        defaults = {
            name: p.default
            for name, p in inspect.signature(
                EntanglingPrefetcher.__init__
            ).parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        _entangling_geometry_cache = (
            f"t{defaults['table_entries']}"
            f"d{defaults['dests_per_entry']}"
            f"l{defaults['latency_estimate']}"
            f"h{defaults['history']}"
        )
    return _entangling_geometry_cache


def entangling_fingerprint(
    trace: Trace, machine: MachineParams, scheme_name: str
) -> str:
    """Hash of everything a recorded stream's content depends on.

    Unlike :func:`repro.frontend.plan.frontend_fingerprint` this is
    deliberately *machine-wide*: the recorded miss cycles depend on
    backend width, queue depth, MSHR count and hierarchy latencies, so
    the whole machine fingerprint participates — plus the reference
    scheme name, since the stream is scheme-coupled by construction.
    """
    blob = json.dumps(
        {
            "format": ENTANGLING_PLAN_FORMAT,
            "trace": trace.digest,
            "scheme": scheme_name,
            "machine": machine.fingerprint(),
            "entangling": _entangling_geometry(),
            "stack": _stack_geometry(),
        },
        sort_keys=True,
    )
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


# -- builder -------------------------------------------------------------------


def build_entangling_plan(
    trace: Trace,
    machine: MachineParams,
    scheme,
    scheme_name: str,
    base: Optional[FrontendPlan] = None,
) -> Tuple["EntanglingPlan", object]:
    """Pass 1: run ``scheme`` live with a recorder; return (plan, RunResult).

    The returned RunResult is the *reference run itself* — recording is
    pure observation, so it is bit-identical to an unrecorded live run
    and callers building a plan for the scheme they are about to
    measure should use it directly instead of replaying (that is how
    cold runs stay as cheap as the pre-plan live path).

    ``base`` is the trace's ``"none"`` FrontendPlan (the mispredict
    stream provider); when omitted it is built in memory.  Callers
    going through :func:`cached_entangling_plan` pass the disk-cached
    one instead, so sweeps never rebuild it.
    """
    from repro.uarch.timing import simulate

    stack = BranchStack(trace)
    recorder = RecordingEntanglingPrefetcher(trace)
    run = simulate(trace, scheme, recorder, stack, machine)
    if base is None:
        base = build_plan(trace, machine, "none")
    n = len(trace)
    plan = EntanglingPlan(
        trace_name=trace.name,
        trace_digest=trace.digest,
        scheme=scheme_name,
        machine_fingerprint=machine.fingerprint(),
        warmup_end=int(n * machine.warmup_fraction),
        fingerprint=entangling_fingerprint(trace, machine, scheme_name),
        ref_scalars={k: getattr(run, k) for k in REF_SCALAR_FIELDS},
        cand_blocks=np.asarray(recorder.rec_cand_blocks, dtype=np.int64),
        cand_lo=np.asarray(recorder.rec_cand_lo, dtype=np.int64),
        cand_hi=np.asarray(recorder.rec_cand_hi, dtype=np.int64),
        miss_rec=np.asarray(recorder.rec_miss_rec, dtype=np.int64),
        miss_cycle=np.asarray(recorder.rec_miss_cycle, dtype=np.int64),
        ent_src=np.asarray(recorder.rec_ent_src, dtype=np.int64),
        ent_dst=np.asarray(recorder.rec_ent_dst, dtype=np.int64),
        base=base,
    )
    return plan, run


# -- caching -------------------------------------------------------------------


#: Entangling plans are per-scheme, so a sweep touches more of them
#: than FrontendPlans; still small — one workload's schemes at a time.
ENTANGLING_STORE = ArtifactStore(
    "entangling plan",
    EntanglingPlan,
    ENTANGLING_ARRAY_FIELDS,
    memo_cap=4,
    cache_env="REPRO_PLAN_CACHE",
    cache_subdir="plans",
)

clear_entangling_plan_memo = ENTANGLING_STORE.clear_memo


def cached_entangling_plan(
    trace: Trace,
    machine: MachineParams,
    scheme_name: str,
    scheme_builder: Callable[[], object],
    use_disk: Optional[bool] = None,
) -> Tuple["EntanglingPlan", Optional[object]]:
    """Memoised + disk-cached plan; returns ``(plan, reference RunResult)``.

    The RunResult is non-None only when pass 1 actually ran in this
    call (memo/disk misses): the harness returns it as the run itself,
    so building a plan never costs more than the live run it replaces.
    ``scheme_builder`` is only invoked on a miss; it must return a
    *fresh* scheme instance for ``scheme_name`` (the harness passes a
    registry factory — the frontend layer deliberately does not import
    the scheme registry).

    Served by :data:`ENTANGLING_STORE`, like
    :func:`repro.frontend.plan.cached_plan`.  A memo hit skips even the
    base-plan lookup.
    """
    fingerprint = entangling_fingerprint(trace, machine, scheme_name)
    name = entry_name(trace.name, f"{fingerprint}.ent")
    plan = ENTANGLING_STORE.recall(name)
    if plan is not None:
        return plan, None
    base = cached_plan(trace, machine, "none", use_disk=use_disk)
    run = None

    def build() -> EntanglingPlan:
        nonlocal run
        plan, run = build_entangling_plan(
            trace, machine, scheme_builder(), scheme_name, base=base
        )
        return plan

    plan = ENTANGLING_STORE.get(
        name,
        build,
        base,
        fingerprint=fingerprint,
        records=len(trace),
        use_disk=use_disk,
    )
    return plan, run
