"""Single-experiment entry point: one (workload, scheme, prefetcher) run.

``run_experiment`` is the public API quickstart users call; the sweep
machinery in :mod:`repro.harness.runner` builds on it with caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.env import env_number
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import cached_plan, plan_kind
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


def live_prefetcher(prefetcher: str, trace: Trace) -> Optional[EntanglingPrefetcher]:
    """The prefetcher object a run drives live: entangling only.

    fdp and none runs read everything from their plan; entangling runs
    pair this fresh object with the ``none`` plan (see
    :func:`~repro.frontend.plan.plan_kind`).
    """
    return EntanglingPrefetcher(trace) if prefetcher == "entangling" else None


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

    Every run takes a precomputed, cached
    :class:`~repro.frontend.plan.FrontendPlan` — the scheme-independent
    frontend work is done once per (workload, frontend config) and
    shared by every scheme.  fdp and none runs take the plan of their
    name.  Entangling runs take the ``none`` plan for their branch
    flushes and drive a fresh
    :class:`~repro.frontend.entangling.EntanglingPrefetcher` live: its
    table trains on scheme-dependent miss timing, so a repeat of the
    same pair is answered by the result cache of
    :class:`~repro.harness.runner.Runner`.
    """
    if prefetcher not in PREFETCHERS:
        raise KeyError(f"unknown prefetcher {prefetcher!r}; known: {PREFETCHERS}")
    machine = machine or DEFAULT_MACHINE
    records = scaled_records(records)
    if context is None:
        trace = get_workload(workload).trace(records=records)
        context = SchemeContext(trace=trace, machine=machine)
    trace = context.trace
    scheme_obj = make_scheme(scheme, context)

    window = shards.shard_window() if shard_window is None else int(shard_window)

    def _sim(**kwargs):
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

    run = _sim(
        plan=cached_plan(trace, machine, plan_kind(prefetcher)),
        prefetcher=live_prefetcher(prefetcher, trace),
    )
    run.workload = workload
    return ExperimentResult(
        run=run,
        workload=workload,
        scheme=scheme,
        prefetcher=prefetcher,
        records=records,
    )
