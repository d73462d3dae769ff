"""Windowed (checkpoint/resume) simulation is bit-identical to single-pass.

Two layers are pinned here:

* the **engine** — ``simulate(resume=..., checkpoint_every=...,
  on_checkpoint=...)`` chunks stitched across simulated process
  boundaries (states pickled between chunks, each chunk passed a fresh
  scheme/prefetcher) equal one undisturbed pass, for fdp-planned runs
  and for "live" runs (the entangling prefetcher driven live on the
  ``none`` plan, its table riding in every checkpoint), across scheme
  families (plain policies, RNG-carrying bypass schemes, oracle-backed
  OPT, ACIC);
* the **harness** — ``run_experiment(shard_window=...)`` resumes a
  half-finished run from a boundary in its shard ledger and still
  reports scalars identical to an unwindowed run, then deletes the
  ledger.  The ledger itself is pinned in ``tests/test_shards.py``.
"""

from __future__ import annotations

import dataclasses
import pickle
from functools import cached_property

import pytest

from repro.frontend import plan as plan_mod
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import build_plan, cached_plan
from repro.harness.experiment import run_experiment
from repro.harness.schemes import SchemeContext, make_scheme
from repro.harness.shards import ledger_for, shards_dir
from repro.mem import prepass as prepass_mod
from repro.mem.prepass import ReplacementPrepass
from repro.uarch import timing
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from repro.workloads.trace import Trace
from reference.state import ordered

RECORDS = 6_000
WORKLOAD = "media-streaming"

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

#: Scheme families with distinct state shapes: plain policy, SHiP
#: signatures, victim buffers, duelling/RNG bypass, oracle OPT, ACIC.
CHUNK_SCHEMES = (
    "lru",
    "ship",
    "vvc",
    "dsb",
    "obm",
    "random-bypass",
    "opt",
    "acic",
    # Flat replacement twins: an unpickled twin must bind its own fused
    # closures over its unpickled containers.
    "ghrp",
    "harmony",
)


def _scalars(run):
    return {k: getattr(run, k) for k in SCALARS}


@pytest.fixture(scope="module")
def none_plan(trace):
    # Built, not cached: the ``none`` plan of this trace is not on disk.
    return build_plan(trace, DEFAULT_MACHINE, "none")


def _live_kwargs(trace, plan):
    """A live run: a fresh entangling prefetcher on the ``none`` plan."""
    return dict(plan=plan, prefetcher=EntanglingPrefetcher(trace))


@pytest.fixture(scope="module")
def trace():
    return get_workload(WORKLOAD).trace(records=RECORDS)


@pytest.fixture(scope="module")
def context(trace):
    return SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


def _run_chunked(trace, make_kwargs, make_scheme_obj, every):
    """Stitch a run out of one-checkpoint chunks.

    Each chunk stops at its first capture (``on_checkpoint`` returning
    True), the state crosses a pickle boundary, and the next chunk gets
    a *fresh* scheme/prefetcher — exactly what a killed and
    restarted process would do.
    """
    state = None
    chunks = 0
    while True:
        captured = []

        def stop(s):
            captured.append(s)
            return True

        run = simulate(
            trace,
            make_scheme_obj(),
            machine=DEFAULT_MACHINE,
            resume=state,
            checkpoint_every=every,
            on_checkpoint=stop,
            **make_kwargs(),
        )
        if run is not None:
            assert chunks > 1, "checkpoint cadence never fired"
            return run
        chunks += 1
        state = pickle.loads(pickle.dumps(captured[-1]))


class TestEngineChunking:
    @pytest.mark.parametrize("name", CHUNK_SCHEMES)
    def test_planned_chunked_equals_single_pass(self, name, trace, context):
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        single = simulate(
            trace, make_scheme(name, context), machine=DEFAULT_MACHINE, plan=plan
        )
        chunked = _run_chunked(
            trace,
            lambda: dict(plan=plan),
            lambda: make_scheme(name, context),
            every=1_700,
        )
        assert _scalars(chunked) == _scalars(single)

    @pytest.mark.parametrize("name", ("lru", "acic", "dsb"))
    def test_live_chunked_equals_single_pass(
        self, name, trace, context, none_plan
    ):
        def live_kwargs():
            return _live_kwargs(trace, none_plan)

        single = simulate(
            trace,
            make_scheme(name, context),
            machine=DEFAULT_MACHINE,
            **live_kwargs(),
        )
        chunked = _run_chunked(
            trace,
            live_kwargs,
            lambda: make_scheme(name, context),
            every=1_300,
        )
        assert _scalars(chunked) == _scalars(single)

    @pytest.mark.parametrize("every", (1, 1_999, RECORDS - 1))
    def test_awkward_cadences(self, every, trace, context):
        """Cadence edge cases: every record, non-divisor, last record.

        ``every=1`` also forces a checkpoint to land exactly on the
        warmup boundary, pinning the re-derivation of base counters.
        """
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        single = simulate(
            trace, make_scheme("lru", context), machine=DEFAULT_MACHINE, plan=plan
        )
        # Stop only once, mid-run, then finish in a second chunk.
        target = {"remaining": 2}

        def stop_midway(s):
            target["remaining"] -= 1
            if target["remaining"] == 0:
                target["state"] = s
                return True
            return False

        run = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            plan=plan,
            checkpoint_every=every,
            on_checkpoint=stop_midway,
        )
        if run is None:
            state = pickle.loads(pickle.dumps(target["state"]))
            run = simulate(
                trace,
                make_scheme("lru", context),
                machine=DEFAULT_MACHINE,
                plan=plan,
                resume=state,
            )
        assert _scalars(run) == _scalars(single)

    def test_mode_mismatch_rejected(self, trace, context):
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        captured = []
        simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            plan=plan,
            checkpoint_every=2_000,
            on_checkpoint=lambda s: captured.append(s) or True,
        )
        state = captured[-1]
        assert state["mode"] == timing._MODE
        # A state an older engine saved from its stack-driven loop.
        with pytest.raises(ValueError, match="live"):
            simulate(
                trace,
                make_scheme("lru", context),
                machine=DEFAULT_MACHINE,
                plan=plan,
                resume={**state, "mode": "live"},
            )

    def test_foreign_instruction_count_rejected(self, trace, context):
        """A state whose instruction count is not this trace's is refused."""
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        captured = []
        simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            plan=plan,
            checkpoint_every=2_000,
            on_checkpoint=lambda s: captured.append(s) or True,
        )
        state = captured[-1]
        counters = {
            **state["counters"],
            "instructions": state["counters"]["instructions"] + 1,
        }
        with pytest.raises(ValueError, match="another trace"):
            simulate(
                trace,
                make_scheme("lru", context),
                machine=DEFAULT_MACHINE,
                plan=plan,
                resume={**state, "counters": counters},
            )

    def test_live_prefetcher_mismatch_rejected(self, trace, context, none_plan):
        """A state carrying a prefetcher resumes only with one, and back."""
        captured = []
        simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            checkpoint_every=2_000,
            on_checkpoint=lambda s: captured.append(s) or True,
            **_live_kwargs(trace, none_plan),
        )
        with pytest.raises(ValueError, match="live prefetcher"):
            simulate(
                trace,
                make_scheme("lru", context),
                machine=DEFAULT_MACHINE,
                plan=none_plan,
                resume=captured[-1],
            )


class TestRunExperimentWindowed:
    @pytest.fixture()
    def result_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_SHARD_WINDOW", raising=False)
        return tmp_path

    def test_windowed_run_matches_and_cleans_up(self, result_cache):
        plain = run_experiment(WORKLOAD, "lru", records=RECORDS)
        windowed = run_experiment(
            WORKLOAD, "lru", records=RECORDS, shard_window=2_000
        )
        assert _scalars(windowed.run) == _scalars(plain.run)
        assert not list(shards_dir().glob("*")), (
            "completed run must delete its ledger"
        )

    def test_resume_from_planted_checkpoint(self, result_cache):
        """A half-finished run's boundary is picked up and finished."""
        plain = run_experiment(WORKLOAD, "lru", records=RECORDS)

        # Produce the mid-run boundary exactly as a killed windowed run
        # would have left it: same trace, machine and window ingredients.
        trace = get_workload(WORKLOAD).trace(records=RECORDS)
        context = SchemeContext(trace=trace, machine=DEFAULT_MACHINE)
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        ledger = ledger_for(
            WORKLOAD,
            "lru",
            "fdp",
            RECORDS,
            DEFAULT_MACHINE.fingerprint(),
            trace.digest,
            2_000,
        )
        halted = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            plan=plan,
            checkpoint_every=2_000,
            on_checkpoint=lambda s: ledger.record(s) or True,
        )
        ledger.close()
        assert halted is None
        assert ledger.ledger_path.exists()

        boundaries = []
        resumed = run_experiment(
            WORKLOAD,
            "lru",
            records=RECORDS,
            shard_window=2_000,
            on_shard=lambda shard, done, total: boundaries.append(shard),
        )
        assert boundaries[0] == 2, "resume must start past the planted boundary"
        assert _scalars(resumed.run) == _scalars(plain.run)
        assert not ledger.ledger_path.exists()


class TestCadenceEdgeCases:
    """Checkpoint cadence boundary conditions, live and planned.

    The cadence grid the engine promises: a cadence that never lands
    inside the trace must not fire (and must not perturb the run), a
    cadence that lands *exactly* on the warmup boundary must re-derive
    the warm-baseline counters identically on resume, and the awkward
    cadences (1, non-divisor, last-record) must stitch bit-identical
    with a live entangling prefetcher exactly as ``TestEngineChunking``
    pins for fdp-planned runs.
    """

    @pytest.fixture(autouse=True)
    def _plans(self, trace, none_plan):
        self._none_plan = none_plan

    def _live_kwargs(self, trace):
        return _live_kwargs(trace, self._none_plan)

    def _planned_kwargs(self, trace):
        return dict(plan=cached_plan(trace, DEFAULT_MACHINE, "fdp"))

    @pytest.mark.parametrize("mode", ("planned", "live"))
    def test_cadence_larger_than_trace_never_fires(self, mode, trace, context):
        make_kwargs = getattr(self, f"_{mode}_kwargs")
        single = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            **make_kwargs(trace),
        )

        def must_not_fire(state):
            raise AssertionError(
                f"cadence beyond the trace fired at {state['next_record']}"
            )

        run = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            checkpoint_every=len(trace) * 2,
            on_checkpoint=must_not_fire,
            **make_kwargs(trace),
        )
        assert run is not None
        assert _scalars(run) == _scalars(single)

    @pytest.mark.parametrize("mode", ("planned", "live"))
    @pytest.mark.parametrize("name", ("lru", "acic"))
    def test_checkpoint_exactly_on_warmup_boundary(
        self, mode, name, trace, context
    ):
        """Stop at the warmup/measure seam and resume across it.

        ``every == warmup_end`` makes the very first capture land on
        the record where warm-baseline counters are snapshotted — the
        resumed half must re-derive them, not re-measure warmup.
        """
        warmup_end = int(len(trace) * DEFAULT_MACHINE.warmup_fraction)
        assert warmup_end > 0
        make_kwargs = getattr(self, f"_{mode}_kwargs")
        single = simulate(
            trace,
            make_scheme(name, context),
            machine=DEFAULT_MACHINE,
            **make_kwargs(trace),
        )
        captured = []
        halted = simulate(
            trace,
            make_scheme(name, context),
            machine=DEFAULT_MACHINE,
            checkpoint_every=warmup_end,
            on_checkpoint=lambda s: captured.append(s) or True,
            **make_kwargs(trace),
        )
        assert halted is None
        assert captured[0]["next_record"] == warmup_end
        state = pickle.loads(pickle.dumps(captured[0]))
        run = simulate(
            trace,
            make_scheme(name, context),
            machine=DEFAULT_MACHINE,
            resume=state,
            **make_kwargs(trace),
        )
        assert _scalars(run) == _scalars(single)

    @pytest.mark.parametrize("every", (1, 1_999, RECORDS - 1))
    def test_live_awkward_cadences(self, every, trace, context):
        """The live-prefetcher mirror of the planned awkward-cadence grid."""
        single = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            **self._live_kwargs(trace),
        )
        target = {"remaining": 2}

        def stop_midway(s):
            target["remaining"] -= 1
            if target["remaining"] == 0:
                target["state"] = s
                return True
            return False

        run = simulate(
            trace,
            make_scheme("lru", context),
            machine=DEFAULT_MACHINE,
            checkpoint_every=every,
            on_checkpoint=stop_midway,
            **self._live_kwargs(trace),
        )
        if run is None:
            state = pickle.loads(pickle.dumps(target["state"]))
            run = simulate(
                trace,
                make_scheme("lru", context),
                machine=DEFAULT_MACHINE,
                resume=state,
                **self._live_kwargs(trace),
            )
        assert _scalars(run) == _scalars(single)

    def test_run_experiment_cadence_of_one(self, monkeypatch, tmp_path):
        """``shard_window=1``: a ledgered boundary at every record."""
        records = 500
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_SHARD_WINDOW", raising=False)
        plain = run_experiment(WORKLOAD, "lru", records=records)
        windowed = run_experiment(
            WORKLOAD, "lru", records=records, shard_window=1
        )
        assert _scalars(windowed.run) == _scalars(plain.run)
        assert not list(shards_dir().glob("*"))


class TestRepeatRunBoundaries:
    """Checkpoints that land inside repeat-hit runs.

    Most records fetch the previous record's block, so cadences of 7 and
    13 put many captures in the middle of a run the planned loop is
    batching into one ``repeat_hits`` call.  The batch must reach the
    scheme before each capture: chunked and watched-but-unstopped runs
    equal one undisturbed pass in scalars and in final scheme state.
    """

    RECORDS = 2_000

    @pytest.fixture(scope="class")
    def short(self):
        # The ghrp/harmony pre-pass of this short trace stays in memory.
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NO_DISK_CACHE", "1")
            trace = get_workload(WORKLOAD).trace(records=self.RECORDS)
            yield trace, SchemeContext(trace=trace, machine=DEFAULT_MACHINE)

    @pytest.mark.parametrize("every", (7, 13))
    @pytest.mark.parametrize("name", ("lru", "opt", "acic", "ghrp", "harmony"))
    def test_chunked_inside_repeat_runs(self, name, every, short):
        trace, context = short
        blocks = trace.blocks_list
        inside = [
            i for i in range(every, len(trace), every) if blocks[i] == blocks[i - 1]
        ]
        assert len(inside) > 20, "cadence never lands inside a repeat run"

        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        single = simulate(
            trace, make_scheme(name, context), machine=DEFAULT_MACHINE, plan=plan
        )
        chunked = _run_chunked(
            trace,
            lambda: dict(plan=plan),
            lambda: make_scheme(name, context),
            every=every,
        )
        captures = []
        watched = simulate(
            trace,
            make_scheme(name, context),
            machine=DEFAULT_MACHINE,
            plan=plan,
            checkpoint_every=every,
            on_checkpoint=lambda s: captures.append(s["next_record"]),
        )
        assert len(captures) == (len(trace) - 1) // every
        want = ordered(single.scheme)
        for run in (chunked, watched):
            assert _scalars(run) == _scalars(single)
            assert ordered(run.scheme) == want


class TestInternedViewsContract:
    """Captures do not depend on how the list views box their ints.

    The trace and pre-pass list views share one int object per distinct
    value; pickle never memoizes ints, so a capture of a run that reads
    them is byte-identical to one over plain ``tolist()`` views, and
    shard ledgers written either way resume alike (no ``SHARD_FORMAT``
    bump).
    """

    AT = 2_500

    def _capture(self, name, trace) -> dict:
        captured = []
        simulate(
            trace,
            make_scheme(name, SchemeContext(trace=trace, machine=DEFAULT_MACHINE)),
            machine=DEFAULT_MACHINE,
            plan=cached_plan(trace, DEFAULT_MACHINE, "fdp"),
            checkpoint_every=self.AT,
            on_checkpoint=lambda s: captured.append(s) or True,
        )
        assert captured[0]["next_record"] == self.AT
        return captured[0]

    @staticmethod
    def _fresh_artifacts() -> None:
        plan_mod.clear_plan_memo()
        prepass_mod.clear_prepass_memo()

    @pytest.mark.parametrize("name", ("ghrp", "acic"))
    def test_capture_bytes_match_plain_views(self, name, trace, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        self._fresh_artifacts()
        interned_trace = dataclasses.replace(trace)
        interned = self._capture(name, interned_trace)
        views = [("blocks_list", interned_trace.blocks_list, interned_trace.blocks)]
        if name == "ghrp":
            pre = prepass_mod.cached_replacement_prepass(interned_trace)
            views.append(("ghrp_sig_list", pre.ghrp_sig_list, pre.ghrp_sig))
        for view, values, array in views:
            assert len({id(x) for x in values}) < len(array) // 2, view

        for cls, names in (
            (Trace, ("blocks_list", "instrs_list", "branch_kind_list", "branch_site_list")),
            (ReplacementPrepass, ("set_index_list", "ghrp_sig_list", "hawkeye_sig_list")),
        ):
            for view in names:
                array = view[: -len("_list")]
                plain = cached_property(lambda self, a=array: getattr(self, a).tolist())
                plain.__set_name__(cls, view)
                monkeypatch.setattr(cls, view, plain)
        self._fresh_artifacts()
        plain_trace = dataclasses.replace(trace)
        plain_capture = self._capture(name, plain_trace)
        assert len({id(x) for x in plain_trace.blocks_list}) > len(trace) // 2
        self._fresh_artifacts()

        assert plain_capture["counters"] == interned["counters"]
        assert plain_capture["graph"] == interned["graph"]
