"""Every trace of a walk takes its frontend plan as a cut of one plan.

FDP run-ahead looks at most ``ftq_depth_records`` records ahead, so the
plan of a walk's shorter trace is the longest plan's prefix with the
last ``depth`` candidate spans clipped at the cut
(:func:`repro.frontend.plan.cut_plan`).  These tests pin, for every
request-entry cut of the W10 walks and of random Figure 11 search
profiles, and for cuts at the emission limit, that
:func:`~repro.frontend.plan.cached_plan` serves a cut equal to
:func:`~repro.frontend.plan.build_plan` of the same trace in every
field, the arrays and the record stream, without consulting the plan
store.
The last class pins the same inside a resident sweep pool, against
scalars from a cold run.
"""

from __future__ import annotations

import gc
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.frontend import plan as plan_mod
from repro.frontend.plan import (
    PLAN_STORE,
    build_plan,
    cached_plan,
    clear_plan_memo,
)
from repro.harness.runner import _SCALAR_FIELDS, Runner
from repro.service.client import ServiceClient
from repro.service.protocol import pair_token
from repro.service.server import ServiceConfig, ServiceThread
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.generator import Walk, WalkParams
from repro.workloads.profiles import (
    DATACENTER_WORKLOADS,
    clear_walk_memo,
    get_workload,
)
from repro.workloads.program import ProgramShape, build_program
from repro.workloads.search.strategies import FIG11_SPACE
from repro.workloads.trace import TRACE_STORE

MACHINE = DEFAULT_MACHINE
IPC = MACHINE.backend_ipc
KINDS = ("fdp", "none")
#: Walk length the W10 and search-profile cuts are taken from.
W10_RECORDS = 20_000
SEARCH_RECORDS = 3000
#: Requests of ~12-40k records: every length below trips the emission
#: limit inside the first request (as in ``test_shared_walk.py``).
LIMIT_SHAPE = ProgramShape(
    hot_functions=8,
    groups=2,
    handlers_per_group=6,
    handler_size=(4, 10),
    shared_handlers=4,
    cold_functions=30,
    cold_size=(8, 16),
)
LIMIT_WALK = WalkParams(phases=(300, 900), cold_phase_prob=0.3)
LIMIT_LENGTHS = (1, 100, 1500, 4000)


@pytest.fixture(autouse=True)
def no_plan_disk(monkeypatch):
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    clear_plan_memo()
    yield
    clear_plan_memo()


@pytest.fixture()
def store_gets(monkeypatch):
    """The names of every ``PLAN_STORE.get`` call."""
    names = []
    real_get = PLAN_STORE.get

    def get(name, *args, **kwargs):
        names.append(name)
        return real_get(name, *args, **kwargs)

    monkeypatch.setattr(PLAN_STORE, "get", get)
    return names


def _assert_equals_build(plan, trace, kind) -> None:
    want = build_plan(replace(trace), MACHINE, kind)
    for name in ("trace_name", "trace_digest", "prefetcher", "depth",
                 "warmup_end", "fingerprint"):
        assert getattr(plan, name) == getattr(want, name), name
    for name in ("mispredict", "cum_mispredict", "cand_lo", "cand_hi"):
        got, ref = getattr(plan, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name
    got, ref = plan.record_stream(trace, IPC), want.record_stream(trace, IPC)
    assert got.probes == ref.probes
    assert got.deltas == ref.deltas
    assert np.array_equal(got.cum_instrs, ref.cum_instrs)


def _check_cuts(walk: Walk, records: int, lengths, kind, store_gets) -> int:
    """Plan the walk's ``records`` trace, then check every length's cut.

    Returns how many cuts differ from the longest plan (a check that
    cuts were taken at all).
    """
    longest = walk.trace(records, "cut")
    whole = cached_plan(longest, MACHINE, kind)
    whole.record_stream(longest, IPC)  # the stream cuts slice
    store_gets.clear()
    cuts = 0
    for length in lengths:
        trace = walk.trace(length, "cut")
        assert len(trace) <= len(longest)
        plan = cached_plan(trace, MACHINE, kind)
        if plan is not whole:
            cuts += 1
            assert plan._stream is not None, "the stream was sliced"
        _assert_equals_build(plan, trace, kind)
    assert store_gets == [], "a cut never goes through the plan store"
    return cuts


def _entries(walk: Walk, records: int):
    """Every request entry inside the walk's ``records`` trace but the
    first (the empty cut)."""
    sites = walk.trace(records).branch_site
    entries = np.flatnonzero(sites == walk.program.dispatch_site).tolist()
    return [e for e in entries if e > 0]


class TestCutEqualsBuild:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("workload", sorted(DATACENTER_WORKLOADS))
    def test_w10_request_entry_cuts(self, workload, kind, store_gets):
        profile = get_workload(workload)
        program = build_program(profile.shape, seed=profile.seed)
        walk = Walk(program, profile.walk, profile.seed + 1)
        lengths = _entries(walk, W10_RECORDS)
        assert _check_cuts(walk, W10_RECORDS, lengths, kind, store_gets) > 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("index", range(4))
    def test_search_profile_request_entry_cuts(self, index, kind, store_gets):
        profile = FIG11_SPACE.build(FIG11_SPACE.sample(11, index))
        program = build_program(profile.shape, seed=profile.seed)
        walk = Walk(program, profile.walk, profile.seed + 1)
        lengths = _entries(walk, SEARCH_RECORDS)
        _check_cuts(walk, SEARCH_RECORDS, lengths, kind, store_gets)

    @pytest.mark.parametrize("kind", KINDS)
    def test_emission_limit_cuts(self, kind, store_gets):
        """Cuts that end mid-request, at the emission limit."""
        walk = Walk(build_program(LIMIT_SHAPE, seed=1), LIMIT_WALK, 2)
        longest = max(LIMIT_LENGTHS)
        assert _check_cuts(walk, longest, LIMIT_LENGTHS, kind, store_gets) == (
            len(LIMIT_LENGTHS) - 1
        )

    def test_cut_without_a_stream_derives_its_own(self, store_gets):
        profile = get_workload("x264")
        walk = Walk(build_program(profile.shape, seed=profile.seed),
                    profile.walk, profile.seed + 1)
        cached_plan(walk.trace(4000), MACHINE, "fdp")  # no stream derived
        trace = walk.trace(2500)
        plan = cached_plan(trace, MACHINE, "fdp")
        assert plan._stream is None
        _assert_equals_build(plan, trace, "fdp")

    def test_longer_trace_replaces_the_kept_plan(self, store_gets):
        profile = get_workload("x264")
        walk = Walk(build_program(profile.shape, seed=profile.seed),
                    profile.walk, profile.seed + 1)
        key = ("fdp", MACHINE.ftq_depth_records)
        short = cached_plan(walk.trace(2000), MACHINE, "fdp")
        assert plan_mod._walk_plans[walk] == {key: short}
        trace = walk.trace(4000)
        longer = cached_plan(trace, MACHINE, "fdp")
        assert plan_mod._walk_plans[walk] == {key: longer}
        # Planned through the store, as any plan that is not a cut.  The
        # plan the walk no longer keeps lives only as long as something
        # else holds it (its own trace went at once).
        assert len(store_gets) == 2
        gone = weakref.ref(short)
        del short
        gc.collect()
        assert gone() is None
        assert PLAN_STORE.memo_size() == 1
        _assert_equals_build(longer, trace, "fdp")

    def test_kept_plans_go_with_their_walk(self, store_gets):
        """Traces hold their walk weakly: once nothing else holds it,
        the walk and its kept plans go, and the traces plan through
        the store."""
        profile = get_workload("x264")
        walk = Walk(build_program(profile.shape, seed=profile.seed),
                    profile.walk, profile.seed + 1)
        trace = walk.trace(2000)
        cached_plan(trace, MACHINE, "fdp")
        assert walk in plan_mod._walk_plans
        before = len(plan_mod._walk_plans)
        shorter = walk.trace(1000)
        del walk
        gc.collect()
        assert trace.walk is None and shorter.walk is None
        assert len(plan_mod._walk_plans) == before - 1
        store_gets.clear()
        _assert_equals_build(cached_plan(shorter, MACHINE, "fdp"), shorter, "fdp")
        assert len(store_gets) == 1

    def test_traces_off_the_walk_go_through_the_store(self, store_gets):
        """A copy of a cut carries no walk: its plan is the store's."""
        profile = get_workload("x264")
        walk = Walk(build_program(profile.shape, seed=profile.seed),
                    profile.walk, profile.seed + 1)
        cached_plan(walk.trace(4000), MACHINE, "fdp")
        store_gets.clear()
        copy = replace(walk.trace(2000))
        assert copy.walk is None
        cached_plan(copy, MACHINE, "fdp")
        assert len(store_gets) == 1


def _scalars(result) -> dict:
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


class TestResidentPool:
    WORKLOAD = "x264"
    FIRST = 3000
    SECOND = 2000
    SCHEMES = ("lru", "acic")

    def test_second_length_is_cut_in_the_workers(
        self, tmp_path, monkeypatch
    ):
        """A workload's second, shorter cold length generates no trace
        and builds, loads or saves no plan in either worker, and its
        scalars equal those of a run with a cleared walk memo.

        The parent serves the first length (trace, plan, simulation)
        before the pool forks, so both workers start with the walk and
        plan a worker that served it holds, whichever worker the pool
        routes a pair to.
        """
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        Runner(records=self.FIRST, use_disk_cache=False).run(self.WORKLOAD, "lru")

        log = tmp_path / "events.log"
        log.touch()

        def logged(event, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {event}\n")
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(Walk, "_grow", logged("grow", Walk._grow))
            patch.setattr(plan_mod, "build_plan", logged("build", build_plan))
            patch.setattr(PLAN_STORE, "get", logged("plan-store", PLAN_STORE.get))
            patch.setattr(TRACE_STORE, "get", logged("trace-store", TRACE_STORE.get))
            with ServiceThread(ServiceConfig(records=self.FIRST, jobs=2)) as svc:
                response = ServiceClient(port=svc.port).sweep(
                    [self.WORKLOAD], self.SCHEMES, records=self.SECOND
                )
        assert set(response["sources"].values()) == {"simulated"}
        assert log.read_text() == ""

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cold-traces"))
        clear_walk_memo()
        clear_plan_memo()
        cold = Runner(records=self.SECOND, use_disk_cache=False)
        for scheme in self.SCHEMES:
            assert response["results"][pair_token(self.WORKLOAD, scheme)] == (
                _scalars(cold.run(self.WORKLOAD, scheme))
            )
