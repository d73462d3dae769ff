"""Single-experiment entry point: one (workload, scheme, prefetcher) run.

``run_experiment`` is the public API quickstart users call; the sweep
machinery in :mod:`repro.harness.runner` builds on it with caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.env import env_number
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.entangling_plan import cached_entangling_plan
from repro.frontend.fdp import FetchDirectedPrefetcher, NullPrefetcher
from repro.frontend.plan import cached_plan, plannable
from repro.frontend.stack import BranchStack
from repro.harness.schemes import SchemeContext, make_scheme
from repro.harness import shards
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult, simulate
from repro.workloads.profiles import get_workload
from repro.workloads.trace import Trace

PREFETCHERS = ("fdp", "entangling", "none")


def scaled_records(records: Optional[int] = None) -> int:
    """Resolve the trace length: explicit > REPRO_SCALE * default."""
    from repro.workloads.profiles import DEFAULT_RECORDS

    if records is not None:
        return records
    scale = env_number("REPRO_SCALE", 1.0, 0.0, float, exclusive=True)
    return max(1000, int(DEFAULT_RECORDS * scale))


def build_prefetcher(name: str, trace: Trace, stack: BranchStack, machine: MachineParams):
    if name == "fdp":
        return FetchDirectedPrefetcher(trace, stack, depth=machine.ftq_depth_records)
    if name == "entangling":
        return EntanglingPrefetcher(trace)
    if name == "none":
        return NullPrefetcher(trace)
    raise KeyError(f"unknown prefetcher {name!r}; known: {PREFETCHERS}")


@dataclass
class ExperimentResult:
    """A run plus the context needed to interpret it."""

    run: RunResult
    workload: str
    scheme: str
    prefetcher: str
    records: int

    @property
    def mpki(self) -> float:
        return self.run.mpki

    @property
    def ipc(self) -> float:
        return self.run.ipc

    @property
    def cycles(self) -> float:
        return self.run.cycles


def run_experiment(
    workload: str,
    scheme: str = "acic",
    prefetcher: str = "fdp",
    records: Optional[int] = None,
    machine: Optional[MachineParams] = None,
    context: Optional[SchemeContext] = None,
    use_plan: bool = True,
    shard_window: Optional[int] = None,
    on_shard=None,
    should_stop=None,
) -> ExperimentResult:
    """Simulate ``scheme`` on ``workload`` and return the measurements.

    ``context`` lets callers share a trace/oracle across several runs
    (the sweep runner does); otherwise one is built from the profile.

    ``shard_window`` (default: ``REPRO_SHARD_WINDOW``, 0 = off) runs the
    simulation as windowed shards through a fsync'd shard ledger
    (:mod:`repro.harness.shards`): the engine checkpoints at every
    window boundary, each boundary persists before the next window
    starts, and an interrupted run resumes from the last verified
    boundary; the shard ledger is the only way a run resumes.
    ``on_shard(shard, done, total)`` fires after each boundary commits;
    ``should_stop()`` is polled at each boundary and, when true, stops
    the run with :class:`~repro.harness.shards.DrainRequested` (ledger
    kept — the graceful-drain path).

    Plannable prefetchers (fdp/none) run against a precomputed, cached
    :class:`~repro.frontend.plan.FrontendPlan` — the scheme-independent
    frontend work is done once per (workload, frontend config) and
    shared by every scheme; the result is bit-identical to the live
    path.  Entangling runs consume a *scheme-coupled*
    :class:`~repro.frontend.entangling_plan.EntanglingPlan` instead,
    recorded under the very scheme being run: a cold run is the
    recording pass itself (one live simulation, exactly the pre-plan
    cost) and warm runs replay it bit-identically.  ``use_plan=False``
    forces the live stack/prefetcher path for every prefetcher (the
    equivalence tests' reference).
    """
    machine = machine or DEFAULT_MACHINE
    records = scaled_records(records)
    if context is None:
        trace = get_workload(workload).trace(records=records)
        context = SchemeContext(trace=trace, machine=machine)
    trace = context.trace
    scheme_obj = make_scheme(scheme, context)

    window = shards.shard_window() if shard_window is None else int(shard_window)

    def _sim(mode: str, **kwargs):
        """Run ``simulate``, windowed through a shard ledger when on.

        With ``window > 0`` the run executes window-by-window through a
        shard ledger that persists every boundary (see
        :mod:`repro.harness.shards`) and honours
        ``on_shard``/``should_stop``; otherwise it is one plain pass.
        Both are pinned bit-identical (``tests/test_shards.py``).
        """
        if window <= 0:
            return simulate(trace, scheme_obj, machine=machine, **kwargs)
        ledger = shards.ledger_for(
            workload,
            scheme,
            prefetcher,
            records,
            machine.fingerprint(),
            trace.digest,
            mode,
            window,
        )
        return shards.run_windowed(
            lambda state, on_ckpt: simulate(
                trace,
                scheme_obj,
                machine=machine,
                resume=state,
                checkpoint_every=window,
                on_checkpoint=on_ckpt,
                **kwargs,
            ),
            ledger=ledger,
            total=len(trace),
            label=f"{workload}/{scheme}",
            on_shard=on_shard,
            should_stop=should_stop,
        )

    if use_plan and plannable(prefetcher):
        plan = cached_plan(trace, machine, prefetcher)
        run = _sim("planned", plan=plan)
    elif use_plan and prefetcher == "entangling":
        plan, fresh = cached_entangling_plan(
            trace, machine, scheme, lambda: scheme_obj
        )
        if fresh is not None:
            # Pass 1 doubles as this run.  The recording pass is driven
            # by the plan builder, not by us, so it is never windowed —
            # sharding covers its replays.
            run = fresh
        else:
            run = _sim("planned-exact", plan=plan)
    else:
        stack = BranchStack(trace)
        prefetcher_obj = build_prefetcher(prefetcher, trace, stack, machine)
        run = _sim("live", prefetcher=prefetcher_obj, stack=stack)
    run.workload = workload
    return ExperimentResult(
        run=run,
        workload=workload,
        scheme=scheme,
        prefetcher=prefetcher,
        records=records,
    )
