"""Sweep service tests: wire protocol, admission/dedup, fault paths.

The acceptance properties this file pins:

* every response is scalar-identical to a direct ``Runner.sweep`` of
  the same grid (including randomized request grids);
* concurrent identical requests cost at most one simulation per
  distinct (workload, scheme) pair;
* warm pairs are served from the fingerprinted result cache without
  re-simulating;
* a killed worker or a mangled trace sidecar on the server path
  degrades to a retried/rebuilt job with identical scalars — never a
  hung connection;
* a sweep that genuinely fails turns into an HTTP 500 / stream error
  event with the in-flight table left clean;
* a resident pool walks and plans a cold workload once, in its warm,
  and a warm that fails transiently leaves the response unchanged;
* no resident pool worker outlives its server.

Each server test runs on both execution paths: ``TestServer`` against a
resident pool of two worker processes (the default), and
``TestServerInThread`` against ``jobs=1`` (sims in the server's sim
thread); the ``service`` fixture reads the path from the class.  Pool
workers keep the environment they were forked with, so a test sets
every ``REPRO_*`` variable before its server starts; tests that patch
code in-process run on ``jobs=1`` only, beside a pool-path twin that
checks the same property from outside.

Every test runs against isolated temporary result, trace and plan
caches, so the repo's ``.cache/`` is never written.
"""

from __future__ import annotations

import gc
import json
import logging
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.common import faults
from repro.frontend import plan as plan_mod
from repro.harness import schemes as schemes_mod
from repro.harness.runner import _SCALAR_FIELDS, Runner
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    pair_token,
    parse_sweep_request,
)
from repro.service.server import (
    RUNNER_POOL_CAP,
    ServiceConfig,
    ServiceThread,
    SweepService,
)
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads import profiles as profiles_mod

RECORDS = 2_000
WORKLOADS = ("x264", "gcc")
SCHEMES = ("lru", "srrip")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Every test gets its own results, traces and plans dirs; the repo
    cache stays clean (a pool's warm saves a walk and plan past the
    length asked, which the committed caches do not hold)."""
    for var in ("REPRO_RESULT_CACHE", "REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
        monkeypatch.setenv(var, str(tmp_path / var.lower()))


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


def _direct(workloads=WORKLOADS, schemes=SCHEMES, records=RECORDS):
    """Scalars from a direct in-memory sweep (the ground truth)."""
    runner = Runner(records=records, use_disk_cache=False)
    return {
        pair_token(w, s): _scalars(r)
        for (w, s), r in runner.sweep(workloads, schemes).items()
    }


def _request(body: dict) -> bytes:
    return json.dumps(body).encode()


class TestProtocol:
    """Request validation: bad input dies with 400 before costing a sim."""

    def test_minimal_request_defaults(self):
        request = parse_sweep_request(
            _request({"workloads": ["x264"], "schemes": ["lru"]})
        )
        assert request.workloads == ("x264",)
        assert request.schemes == ("lru",)
        assert request.records is None
        assert request.prefetcher == "fdp"
        assert request.machine == DEFAULT_MACHINE
        assert request.stream is False
        assert request.pairs() == [("x264", "lru")]

    def test_pairs_are_deduped_grid_order(self):
        request = parse_sweep_request(
            _request(
                {"workloads": ["x264", "x264"], "schemes": ["lru", "srrip"]}
            )
        )
        assert request.pairs() == [("x264", "lru"), ("x264", "srrip")]

    def test_machine_overrides_apply(self):
        request = parse_sweep_request(
            _request(
                {
                    "workloads": ["x264"],
                    "schemes": ["lru"],
                    "machine": {"fetch_width": 8},
                }
            )
        )
        assert request.machine.fetch_width == 8
        assert request.machine.mshr_entries == DEFAULT_MACHINE.mshr_entries

    @pytest.mark.parametrize(
        "body",
        [
            {"schemes": ["lru"]},  # workloads missing
            {"workloads": [], "schemes": ["lru"]},  # empty
            {"workloads": "x264", "schemes": ["lru"]},  # not a list
            {"workloads": [1], "schemes": ["lru"]},  # not strings
            {"workloads": ["nope"], "schemes": ["lru"]},  # unknown workload
            {"workloads": ["x264"], "schemes": ["nope"]},  # unknown scheme
            {"workloads": ["x264"], "schemes": ["lru"], "records": "many"},
            {"workloads": ["x264"], "schemes": ["lru"], "records": True},
            {"workloads": ["x264"], "schemes": ["lru"], "records": 10},
            {"workloads": ["x264"], "schemes": ["lru"], "prefetcher": "bogus"},
            {"workloads": ["x264"], "schemes": ["lru"], "machine": 5},
            {"workloads": ["x264"], "schemes": ["lru"], "machine": {"bogus": 1}},
            {
                "workloads": ["x264"],
                "schemes": ["lru"],
                "machine": {"fetch_width": "wide"},
            },
            {"workloads": ["x264"], "schemes": ["lru"], "stream": 1},
            {"workloads": ["x264"], "schemes": ["lru"], "workloadz": []},
        ],
    )
    def test_invalid_requests_rejected(self, body):
        with pytest.raises(ProtocolError):
            parse_sweep_request(_request(body))

    @pytest.mark.parametrize("raw", [b"not json", b"[1, 2]", b'"sweep"'])
    def test_non_object_bodies_rejected(self, raw):
        with pytest.raises(ProtocolError):
            parse_sweep_request(raw)

    def test_oversized_body_rejected(self):
        raw = _request(
            {"workloads": ["x264"] * 20_000, "schemes": ["lru"]}
        )
        assert len(raw) > MAX_BODY_BYTES
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_sweep_request(raw)


@pytest.fixture()
def service(request):
    """A server on the test class's execution path (its ``JOBS``)."""
    config = ServiceConfig(records=RECORDS, jobs=request.cls.JOBS)
    with ServiceThread(config) as svc:
        yield ServiceClient(port=svc.port)


@pytest.fixture()
def thread_service():
    """A ``jobs=1`` server, for tests that patch code in-process."""
    with ServiceThread(ServiceConfig(records=RECORDS, jobs=1)) as svc:
        yield ServiceClient(port=svc.port)


def _pool_pids() -> set:
    return {p.pid for p in multiprocessing.active_children()}


class TestServer:
    #: Worker processes of the server under test: the default path, a
    #: resident pool.  ``TestServerInThread`` reruns the class at 1.
    JOBS = 2

    def test_cold_then_warm_matches_direct_sweep(self, service):
        expected = _direct()
        cold = service.sweep(WORKLOADS, SCHEMES)
        assert cold["results"] == expected
        assert set(cold["sources"].values()) == {"simulated"}

        warm = service.sweep(WORKLOADS, SCHEMES)
        assert warm["results"] == expected
        assert set(warm["sources"].values()) == {"warm"}, (
            "a repeated grid must be served from the result cache"
        )
        health = service.health()
        assert health["status"] == "ok"
        assert health["stats"]["requests"] == 2
        assert health["stats"]["warm_hits"] == len(expected)
        assert health["stats"]["admitted"] == len(expected)
        assert health["in_flight_pairs"] == 0
        # The simulate task's bookkeeping finishes just after the
        # response is written; the queue must drain promptly after.
        deadline = time.monotonic() + 10
        while service.health()["cold_sweeps"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.health()["cold_sweeps"] == 0

    def test_duplicate_requests_cost_one_sim_per_pair(
        self, thread_service, monkeypatch
    ):
        """N clients asking the same cold grid -> each pair simulated once."""
        service = thread_service
        expected = _direct()
        simulated = []
        lock = threading.Lock()
        real = runner_mod.run_experiment

        def counting(workload, scheme, **kwargs):
            with lock:
                simulated.append((workload, scheme))
            return real(workload, scheme, **kwargs)

        monkeypatch.setattr(runner_mod, "run_experiment", counting)
        clients = 6
        with ThreadPoolExecutor(max_workers=clients) as pool:
            responses = list(
                pool.map(
                    lambda _: service.sweep(WORKLOADS, SCHEMES),
                    range(clients),
                )
            )
        for response in responses:
            assert response["results"] == expected
        grid = sorted((w, s) for w in WORKLOADS for s in SCHEMES)
        assert sorted(simulated) == grid, (
            "concurrent identical requests must dedupe to exactly one "
            "simulation per distinct pair"
        )

    def test_duplicate_requests_cost_one_sim_per_pair_on_pool(self):
        """The pool-path twin, counted by the server: every pair is
        admitted (handed to the pool) exactly once, and every other
        request for it joins that simulation or reads its result."""
        expected = _direct()
        clients = 6
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            service = ServiceClient(port=svc.port)
            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(
                    pool.map(
                        lambda _: service.sweep(WORKLOADS, SCHEMES),
                        range(clients),
                    )
                )
            stats = service.health()["stats"]
        for response in responses:
            assert response["results"] == expected
        assert stats["admitted"] == len(expected), (
            "concurrent identical requests must dedupe to exactly one "
            "simulation per distinct pair"
        )
        assert stats["dedup_hits"] + stats["warm_hits"] == (
            (clients - 1) * len(expected)
        )

    def test_server_matches_direct_sweep_every_scheme_20k(self, tmp_path, monkeypatch):
        """Every registered scheme, 20k records: server == direct sweep.

        (The "20k" in the name keeps this full grid out of the
        coverage-gate selection, like the other whole-engine grids.)
        """
        workload = "media-streaming"
        records = 20_000
        schemes = sorted(schemes_mod.available_schemes())
        direct = Runner(records=records, use_disk_cache=False)
        expected = {
            pair_token(w, s): _scalars(r)
            for (w, s), r in direct.sweep((workload,), schemes).items()
        }
        with ServiceThread(ServiceConfig(records=records, jobs=2)) as svc:
            response = ServiceClient(port=svc.port).sweep((workload,), schemes)
        assert response["results"] == expected
        assert set(response["sources"].values()) == {"simulated"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_grids_match_direct_sweep(self, service, seed):
        """Property-style: any valid request grid == direct Runner.sweep."""
        rng = random.Random(seed)
        workloads = rng.sample(["x264", "gcc", "media-streaming"], rng.randint(1, 2))
        schemes = rng.sample(["lru", "srrip", "acic"], rng.randint(1, 2))
        response = service.sweep(workloads, schemes)
        assert response["results"] == _direct(workloads, schemes)

    def test_streaming_emits_result_per_pair_then_done(self, service):
        expected = _direct()
        events = list(service.sweep_stream(WORKLOADS, SCHEMES))
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == len(expected)
        for event in results:
            token = pair_token(event["workload"], event["scheme"])
            assert event["scalars"] == expected[token]
            assert event["source"] == "simulated"
        assert events[-1]["event"] == "done"
        assert events[-1]["pairs"] == len(expected)

        # A warm stream replays the same events from the cache.
        warm = list(service.sweep_stream(WORKLOADS, SCHEMES))
        assert {e["source"] for e in warm if e["event"] == "result"} == {"warm"}

    def test_unknown_names_rejected_with_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.sweep(["not-a-workload"], ["lru"])
        assert excinfo.value.status == 400
        assert "not-a-workload" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            service.sweep(["x264"], ["not-a-scheme"])
        assert excinfo.value.status == 400

    def test_http_surface(self, service):
        schemes = service.schemes()
        assert "lru" in schemes and "acic" in schemes
        assert "x264" in service.workloads()
        with pytest.raises(ServiceError) as excinfo:
            service._request_json("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            service._request_json("GET", "/sweep")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            service.sweep(["x264"] * 20_000, ["lru"])
        assert excinfo.value.status == 413

    def test_full_queue_rejects_cold_but_serves_warm(self):
        """max_queue=0: cold work is refused up front, warm still flows."""
        with ServiceThread(
            ServiceConfig(records=RECORDS, jobs=self.JOBS, max_queue=0)
        ) as svc:
            client = ServiceClient(port=svc.port)
            with pytest.raises(ServiceError) as excinfo:
                client.sweep(WORKLOADS, SCHEMES)
            assert excinfo.value.status == 503
            health = client.health()
            assert health["stats"]["rejected"] == 1
            assert health["in_flight_pairs"] == 0, (
                "rejected pairs must be withdrawn from the in-flight table"
            )

            # Prewarm the shared disk cache directly; the same request
            # now has no cold work and must pass the closed queue.
            Runner(records=RECORDS).sweep(WORKLOADS, SCHEMES)
            warm = client.sweep(WORKLOADS, SCHEMES)
            assert set(warm["sources"].values()) == {"warm"}

    def test_runner_pool_stays_bounded(self, tmp_path, monkeypatch):
        """More distinct configurations than the pool holds: the pool
        stays bounded, responses stay exact, and an evicted
        configuration is served warm from the disk result cache."""
        # Before the server starts: pool workers keep the environment
        # they were forked with, and these record counts are not in the
        # committed trace/plan caches.
        for var in ("REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
            monkeypatch.setenv(var, str(tmp_path / var.lower()))
        config = ServiceConfig(records=RECORDS, jobs=self.JOBS)
        with ServiceThread(config) as svc:
            service = ServiceClient(port=svc.port)
            grid = (("x264",), ("lru",))
            counts = [RECORDS + i for i in range(RUNNER_POOL_CAP + 2)]
            for records in counts:
                response = service.sweep(*grid, records=records)
                assert response["results"] == _direct(*grid, records=records)
                assert set(response["sources"].values()) == {"simulated"}
                assert service.health()["runners"] <= RUNNER_POOL_CAP
            evicted = counts[0]
            again = service.sweep(*grid, records=evicted)
            assert again["results"] == _direct(*grid, records=evicted)
            assert set(again["sources"].values()) == {"warm"}

    def test_failed_sweep_returns_500_and_clears_inflight(
        self, thread_service, monkeypatch, caplog
    ):
        service = thread_service
        def poisoned(ctx):
            raise ValueError("poisoned scheme factory")

        monkeypatch.setitem(schemes_mod._REGISTRY, "poisoned", poisoned)
        monkeypatch.setitem(
            schemes_mod._DESCRIPTIONS, "poisoned", "always fails (test only)"
        )
        with pytest.raises(ServiceError) as excinfo:
            service.sweep(["x264"], ["poisoned"])
        assert excinfo.value.status == 500
        assert "sweep failed" in excinfo.value.message
        health = service.health()
        assert health["stats"]["errors"] >= 1
        assert health["in_flight_pairs"] == 0, (
            "a failed sweep must fail its futures, not leak them"
        )

        # The streaming path reports the same failure as an error event
        # instead of hanging the chunked response.
        events = list(service.sweep_stream(["x264"], ["poisoned"]))
        assert events[-1]["event"] == "error"
        assert "sweep failed" in events[-1]["error"]

        # A bulk response decided by its first failed pair still
        # collects the others: none is logged as never retrieved.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with pytest.raises(ServiceError):
                service.sweep(["x264", "gcc", "tpcc"], ["poisoned"])
            deadline = time.monotonic() + 0.5  # the handler may still run
            while time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.05)
        assert "never retrieved" not in caplog.text

    def test_failed_sweep_returns_500_and_clears_inflight_on_pool(
        self, monkeypatch
    ):
        """The pool-path twin: armed before the fork, a worker kill with
        no retry budget fails every sweep, in every replacement pool."""
        monkeypatch.setenv("REPRO_FAULT", "worker:kill@1")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            service = ServiceClient(port=svc.port)
            with pytest.raises(ServiceError) as excinfo:
                service.sweep(["x264"], ["lru"])
            assert excinfo.value.status == 500
            assert "sweep failed" in excinfo.value.message
            health = service.health()
            assert health["stats"]["errors"] >= 1
            assert health["pool_replacements"] >= 1
            assert health["in_flight_pairs"] == 0, (
                "a failed sweep must fail its futures, not leak them"
            )

            events = list(service.sweep_stream(["gcc"], ["lru"]))
            assert events[-1]["event"] == "error"
            assert "sweep failed" in events[-1]["error"]
            assert service.health()["in_flight_pairs"] == 0


class TestServerInThread(TestServer):
    """Every path-independent server test again, with ``jobs=1``: no
    pool, sims in the server's sim thread."""

    JOBS = 1
    # Tests that fix their own path run once, in TestServer.
    test_duplicate_requests_cost_one_sim_per_pair = None
    test_duplicate_requests_cost_one_sim_per_pair_on_pool = None
    test_failed_sweep_returns_500_and_clears_inflight = None
    test_failed_sweep_returns_500_and_clears_inflight_on_pool = None
    test_server_matches_direct_sweep_every_scheme_20k = None


class TestServerFaultInjection:
    """REPRO_FAULT sites on the server path: responses stay identical."""

    @pytest.fixture()
    def arm(self, tmp_path, monkeypatch):
        def _arm(spec):
            monkeypatch.setenv("REPRO_FAULT", spec)
            monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "latch"))
            faults.reset()

        yield _arm
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()

    def test_killed_worker_degrades_to_retried_job(self, arm):
        """A SIGKILLed pool worker mid-request: the client still gets a
        complete, scalar-identical response — not a hung connection —
        and the replacement pool serves the next cold request."""
        expected = _direct()
        arm("worker:kill@1")
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            client = ServiceClient(port=svc.port)
            response = client.sweep(WORKLOADS, SCHEMES)
            assert client.health()["pool_replacements"] == 1
            after = client.sweep(["media-streaming"], SCHEMES)
        assert response["results"] == expected
        assert set(response["sources"].values()) == {"simulated"}
        assert after["results"] == _direct(["media-streaming"], SCHEMES)
        assert set(after["sources"].values()) == {"simulated"}

    def test_truncated_trace_sidecar_is_rebuilt(self, arm, tmp_path, monkeypatch):
        """A trace sidecar mangled behind the server's back: the next
        server to load that workload falls back to the npz and answers
        with identical scalars."""
        expected = _direct()
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        arm("sidecar:truncate@1")
        with ServiceThread(ServiceConfig(records=RECORDS)) as svc:
            first = ServiceClient(port=svc.port).sweep(WORKLOADS, SCHEMES)
        assert first["results"] == expected

        # Fresh server, fresh result cache: the grid is cold again and
        # must be re-simulated through the mangled sidecar.
        monkeypatch.setenv(
            "REPRO_RESULT_CACHE", str(tmp_path / "results-second")
        )
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        faults.reset()
        with ServiceThread(ServiceConfig(records=RECORDS)) as svc:
            second = ServiceClient(port=svc.port).sweep(WORKLOADS, SCHEMES)
        assert second["results"] == expected
        assert set(second["sources"].values()) == {"simulated"}


#: Set before a pool forks: the file ``_slow_warm`` touches when it starts.
_WARM_STARTED: Path = Path()
_real_warm_worker = runner_mod._warm_worker


def _faulty_warm(config, workload, prepass, ahead):
    raise faults.FaultInjected(f"injected into the warm of {workload}")


def _dying_warm(config, workload, prepass, ahead):
    os.kill(os.getpid(), signal.SIGKILL)


def _slow_warm(config, workload, prepass, ahead):
    _WARM_STARTED.touch()
    time.sleep(1.0)
    return _real_warm_worker(config, workload, prepass, ahead)


class TestPoolWarm:
    """A resident pool warms each cold workload once, outside the slot.

    Patches go in before the pool forks, so its workers inherit them.
    """

    SCHEMES = ("lru", "acic", "opt", "srrip")

    @pytest.fixture(autouse=True)
    def plan_disk_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)

    def test_cold_workload_is_walked_and_planned_once_per_pool(
        self, tmp_path, monkeypatch
    ):
        """Both workers simulate pairs of one cold request, but only the
        warm walks the workload from record 0 and builds its plan: the
        other worker loads what the warm saved."""
        log = tmp_path / "builds.log"
        log.touch()

        def logged(event, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {event}\n")
                return fn(*args, **kwargs)

            return wrapper

        records, longer = 8000, 16000  # past the first warm's slack
        with monkeypatch.context() as patch:
            patch.setattr(
                profiles_mod,
                "generate_trace",
                logged("walk", profiles_mod.generate_trace),
            )
            patch.setattr(
                plan_mod, "build_plan", logged("plan", plan_mod.build_plan)
            )
            with ServiceThread(ServiceConfig(records=records, jobs=2)) as svc:
                client = ServiceClient(port=svc.port)
                response = client.sweep(["gcc"], self.SCHEMES)
                first = log.read_text().split()
                grown = client.sweep(["gcc"], self.SCHEMES, records=longer)
        assert response["results"] == _direct(["gcc"], self.SCHEMES, records)
        assert grown["results"] == _direct(["gcc"], self.SCHEMES, longer)
        assert first[1::2] == ["walk", "plan"], (
            "one walk from record 0 and one plan build per pool, the "
            "request's trace and plan cut from them"
        )
        assert first[0] == first[2], "both by the warming worker"
        events = log.read_text().split()
        assert events[len(first) + 1 :: 2] == ["plan"], (
            "a longer length grows the walk and builds one plan, which "
            "the other worker resumes and loads"
        )

    def test_pool_warms_each_uncovered_length_once(self):
        """One warm at a time per workload: a warm in flight is shared,
        a done one covers every length up to its longest trace's, which
        runs ``WARM_AHEAD`` past the length asked, and only a longer
        length sends another."""
        pool = runner_mod.WorkerPool(2)
        try:
            config = ("fdp", 3000, DEFAULT_MACHINE)
            first = pool.warm(config, "x264", False)
            assert pool.warm(("fdp", 9000, DEFAULT_MACHINE), "x264", False) is first
            shortest, warmed = first.result(timeout=60)
            assert shortest == 0
            assert warmed >= 3000 + int(3000 * runner_mod.WARM_AHEAD)
            for records in (1000, 3000, warmed):
                covered = pool.warm(("fdp", records, DEFAULT_MACHINE), "x264", False)
                assert covered is first
            longer = pool.warm(("fdp", warmed + 1, DEFAULT_MACHINE), "x264", False)
            assert longer is not first and longer.result(timeout=60)[1] > warmed
            assert pool.warm(config, "x264", False) in (first, longer)
            other = pool.warm(config, "gcc", False)
            assert other not in (first, longer)
            other.result(timeout=60)
            pool.replace(pool.executor)
            assert pool.warm(config, "x264", False) is not longer, (
                "a replaced pool forgets its warms"
            )
        finally:
            pool.close()

    def test_warm_of_a_stored_length_loads_it(self, tmp_path, monkeypatch):
        """A length the trace cache holds (as the committed bench length
        is) is warmed by loading it and its plan: nothing is walked or
        planned, nothing past it is saved, and the warm covers only it.
        (A call of either builder fails the warm, and is logged.)"""
        records = 3000
        Runner(records=records).context_for("x264")  # saves trace and plan
        runner_mod._CONTEXTS.clear()
        profiles_mod.clear_walk_memo()
        plan_mod.clear_plan_memo()
        gc.collect()
        saved = sorted(p.name for p in tmp_path.rglob("*.npz"))
        calls = tmp_path / "calls.log"
        calls.touch()

        def called(name):
            def record(*args, **kwargs):
                with open(calls, "a") as fh:
                    fh.write(f"{name}\n")
                raise AssertionError(f"{name} was called")

            return record

        monkeypatch.setattr(profiles_mod, "generate_trace", called("walk"))
        monkeypatch.setattr(plan_mod, "build_plan", called("plan"))
        pool = runner_mod.WorkerPool(2)
        try:
            config = ("fdp", records, DEFAULT_MACHINE)
            warm = pool.warm(config, "x264", False)
            assert warm.result(timeout=60) == (records, records)
            assert pool.warm(config, "x264", False) is warm
        finally:
            pool.close()
        assert calls.read_text() == ""
        assert sorted(p.name for p in tmp_path.rglob("*.npz")) == saved

    def test_hung_warm_is_replaced_on_the_progress_deadline(
        self, tmp_path, monkeypatch
    ):
        """A warm that wedges while saving its trace: the request's wait
        on it kills and replaces the pool on ``REPRO_SWEEP_TIMEOUT``,
        and the pairs, run on the new pool, answer identically."""
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "2")
        monkeypatch.setenv("REPRO_FAULT", "trace-npz:hang@1")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "latch"))
        faults.reset()
        try:
            started = time.monotonic()
            with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
                client = ServiceClient(port=svc.port)
                response = client.sweep(WORKLOADS, SCHEMES)
                replacements = client.health()["pool_replacements"]
            took = time.monotonic() - started
        finally:
            monkeypatch.delenv("REPRO_FAULT")
            faults.reset()
        assert response["results"] == _direct()
        assert set(response["sources"].values()) == {"simulated"}
        assert replacements == 1
        assert took < faults.HANG_SECONDS / 2, "waited out the hang"

    @pytest.mark.parametrize(
        "warm", [_faulty_warm, _dying_warm], ids=["fault", "dead-pool"]
    )
    def test_failed_warm_leaves_the_response_identical(self, warm, monkeypatch):
        """A warm that raises an injected fault or takes its pool down:
        the pairs build what they need, and a dead pool is replaced."""
        monkeypatch.setattr(runner_mod, "_warm_worker", warm)
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            client = ServiceClient(port=svc.port)
            response = client.sweep(WORKLOADS, SCHEMES)
            replacements = client.health()["pool_replacements"]
        assert response["results"] == _direct()
        assert set(response["sources"].values()) == {"simulated"}
        assert replacements == (1 if warm is _dying_warm else 0)

    def test_sharded_sweep_submits_no_warm(self, monkeypatch):
        """A sharded sweep simulates in the sim thread, so the pool
        warms nothing for it."""
        monkeypatch.setenv("REPRO_SHARD_WINDOW", "500")
        warms = []
        monkeypatch.setattr(
            runner_mod.WorkerPool, "warm", lambda *args: warms.append(args)
        )
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            response = ServiceClient(port=svc.port).sweep(WORKLOADS, SCHEMES)
        assert response["results"] == _direct()
        assert warms == []

    def test_warm_in_flight_is_cold_work_for_drain(self, tmp_path, monkeypatch):
        """A stop while a request waits on its warm drains it: the warm,
        then the sweep, run to completion before the service closes."""
        monkeypatch.setattr(sys.modules[__name__], "_WARM_STARTED", tmp_path / "warm")
        monkeypatch.setattr(runner_mod, "_warm_worker", _slow_warm)
        svc = ServiceThread(ServiceConfig(records=RECORDS, jobs=2)).start()
        client = ServiceClient(port=svc.port)
        responses = []
        request = threading.Thread(
            target=lambda: responses.append(client.sweep(WORKLOADS, SCHEMES))
        )
        request.start()
        deadline = time.monotonic() + 30
        while not _WARM_STARTED.exists():
            assert time.monotonic() < deadline, "the warm never started"
            time.sleep(0.005)
        assert client.health()["cold_sweeps"] == 1
        svc.stop()
        request.join(timeout=60)
        assert not svc._thread.is_alive()
        assert [r["results"] for r in responses] == [_direct()]


REPO = Path(__file__).resolve().parents[1]


class TestServiceSizes:
    """A service size below its floor is refused, never read as a default."""

    @pytest.mark.parametrize("name", ["jobs", "max_concurrent_sweeps"])
    def test_config_below_one_raises(self, name):
        with pytest.raises(ValueError, match=f"ServiceConfig.{name}"):
            SweepService(ServiceConfig(records=RECORDS, **{name: 0}))

    @pytest.mark.parametrize("name", ["max_queue", "drain_timeout"])
    def test_config_below_zero_raises(self, name):
        with pytest.raises(ValueError, match=f"ServiceConfig.{name}"):
            SweepService(ServiceConfig(records=RECORDS, **{name: -1}))

    @staticmethod
    def _stderr_of_usage_error(flag, value):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "serve_sweeps.py"), flag, value],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        return proc.stderr

    @pytest.mark.parametrize("flag", ["--jobs", "--max-concurrent"])
    def test_cli_below_one_is_a_usage_error(self, flag):
        stderr = self._stderr_of_usage_error(flag, "0")
        assert f"{flag} must be at least 1, got 0" in stderr

    @pytest.mark.parametrize("flag", ["--max-queue", "--drain-timeout"])
    def test_cli_below_zero_is_a_usage_error(self, flag):
        stderr = self._stderr_of_usage_error(flag, "-1")
        assert f"{flag} must be at least 0, got -1" in stderr


class TestNoWorkerOutlivesItsServer:
    """A resident pool's workers end with their server, however it stops."""

    def test_stop_reaps_every_worker(self):
        before = _pool_pids()
        with ServiceThread(ServiceConfig(records=RECORDS, jobs=2)) as svc:
            workers = _pool_pids() - before
            assert len(workers) == 2, "the pool forks when the service starts"
            ServiceClient(port=svc.port).sweep(WORKLOADS, SCHEMES)
        assert not workers & _pool_pids()

    @pytest.mark.parametrize(
        "stalled", [False, True], ids=["drained", "timed-out"]
    )
    def test_drain_with_pool_work_in_flight_reaps_every_worker(
        self, stalled, tmp_path, monkeypatch
    ):
        """``stop()`` with a cold sweep on the pool: a drain that sees it
        finish shuts the workers down; one that times out on a hung
        worker kills them."""
        for var in ("REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
            monkeypatch.setenv(var, str(tmp_path / var.lower()))
        if stalled:
            monkeypatch.setenv("REPRO_FAULT", "worker:hang@1")
        before = _pool_pids()
        svc = ServiceThread(
            ServiceConfig(records=20_000, jobs=2, drain_timeout=1.0)
        ).start()
        workers = _pool_pids() - before
        client = ServiceClient(port=svc.port)
        request = threading.Thread(
            target=_swallow,
            args=(lambda: client.sweep(WORKLOADS, ("acic", "opt")),),
        )
        request.start()
        deadline = time.monotonic() + 30
        while not client.health()["cold_sweeps"]:
            assert time.monotonic() < deadline, "the cold sweep never started"
            time.sleep(0.005)
        svc.stop()
        request.join(timeout=60)
        assert not request.is_alive(), "the drain left a request hanging"
        assert not svc._thread.is_alive()
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while workers & _pool_pids():
            assert time.monotonic() < deadline, "a worker outlived its server"
            time.sleep(0.05)

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(),
        reason="reads children from /proc",
    )
    @pytest.mark.parametrize(
        "sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_signal_reaps_every_worker(self, sig, tmp_path):
        """SIGTERM and SIGINT each drain, exit 0 and reap both workers."""
        env = dict(os.environ, REPRO_RESULT_CACHE=str(tmp_path / "results"))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                str(REPO / "scripts" / "serve_sweeps.py"),
                "--port",
                "0",
                "--records",
                str(RECORDS),
                "--jobs",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            lines = []
            while not lines or "listening on http://" not in lines[-1]:
                lines.append(proc.stdout.readline())
                assert lines[-1], f"server never came up: {lines}"
            port = int(lines[-1].rsplit(":", 1)[1])
            response = ServiceClient(port=port).sweep(WORKLOADS, SCHEMES)
            assert response["results"] == _direct()
            workers = _children_of(proc.pid)
            assert len(workers) == 2, workers
            proc.send_signal(sig)
            assert proc.wait(timeout=60) == 0
            assert "drained; exiting" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while any(os.path.exists(f"/proc/{pid}") for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its server"
            time.sleep(0.05)


def _swallow(call) -> None:
    """Run ``call``, ignoring its failure (a drain may cut a request)."""
    try:
        call()
    except Exception:
        pass


def _children_of(pid: int) -> set:
    """Live child pids of ``pid``, read from ``/proc``."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process exited while we looked
        if int(fields[1]) == pid and fields[0] != "Z":
            children.add(int(stat.parent.name))
    return children
