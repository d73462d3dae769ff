"""Fault-injection harness: crashes recover to bit-identical results.

``REPRO_FAULT`` arms deterministic faults (kill/raise/hang a worker,
truncate or stale-overwrite a file a writer just committed) at
instrumented sites.  These tests drive the supervised sweep and the
caching layers through every fault kind and assert the recovered
results equal an undisturbed run's scalars exactly — crash-safety must
never buy approximate answers.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import threading
import time

import numpy as np
import pytest

from repro.common import faults
from repro.common.artifacts import sidecar_path
from repro.common.faults import (
    FaultInjected,
    FaultPlan,
    STALE_BYTES,
    fire,
)
from repro.common.durable import results_dir
from repro.harness import runner as runner_module
from repro.harness.runner import _SCALAR_FIELDS, Runner, WorkerPool
from repro.workloads.profiles import clear_walk_memo, get_workload

RECORDS = 3_000
WORKLOADS = ("x264", "gcc")
SCHEMES = ("lru", "srrip")


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


@pytest.fixture()
def fault_env(tmp_path, monkeypatch):
    """Isolated result cache + armed-fault scaffolding.

    Returns a helper that arms ``REPRO_FAULT`` with a one-shot latch in
    ``tmp_path`` (so rebuilt pools do not re-fire) and resets the
    per-process arrival counters.
    """
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")

    def arm(spec, latch=True):
        monkeypatch.setenv("REPRO_FAULT", spec)
        if latch:
            monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "latch"))
        else:
            monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()

    yield arm
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
    faults.reset()


def _expected():
    """Undisturbed sweep scalars (serial, no faults armed)."""
    runner = Runner(records=RECORDS, use_disk_cache=False)
    return {
        k: _scalars(v) for k, v in runner.sweep(WORKLOADS, SCHEMES).items()
    }


class TestSpecParsing:
    def test_grammar(self):
        plan = FaultPlan("worker:kill@3, shard:truncate")
        assert plan.faults == {
            "worker": ("kill", 3),
            "shard": ("truncate", 1),
        }

    @pytest.mark.parametrize(
        "spec",
        ["nowhere:kill", "worker:explode", "worker:kill@0", "worker:kill@x"],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan(spec)

    def test_fire_is_noop_when_unarmed(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        faults.reset()
        fire("worker")  # must not raise, count, or touch files

    def test_raise_kind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "worker:raise@2")
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()
        fire("worker")  # arrival 1: below ordinal
        with pytest.raises(FaultInjected):
            fire("worker")
        fire("worker")  # arrival 3: past ordinal, fires once only

    @pytest.mark.parametrize("kind", ["truncate", "stale"])
    def test_file_kinds_skip_a_vanished_file(self, kind, tmp_path, monkeypatch):
        # Two workers building one artifact: the other's commit removed
        # the directory this writer just committed into.
        monkeypatch.setenv("REPRO_FAULT", f"sidecar:{kind}")
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()
        fire("sidecar", str(tmp_path / "gone.mmap" / "meta.json"))
        assert not (tmp_path / "gone.mmap").exists()

    def test_latch_suppresses_refire(self, tmp_path, monkeypatch):
        latch = tmp_path / "latch"
        monkeypatch.setenv("REPRO_FAULT", "worker:raise@1")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(latch))
        faults.reset()
        with pytest.raises(FaultInjected):
            fire("worker")
        assert latch.exists(), "latch must be set before the fault fires"
        faults.reset()  # a replacement worker: fresh counters, same env
        fire("worker")  # latched: no refire


class TestSupervisedSweepRecovery:
    """Each fault kind against the parallel sweep; scalars must match."""

    def test_worker_raise_is_retried(self, fault_env):
        expected = _expected()
        fault_env("worker:raise@2")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        assert {k: _scalars(v) for k, v in results.items()} == expected

    def test_dead_worker_pool_is_rebuilt(self, fault_env):
        expected = _expected()
        fault_env("worker:kill@1")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        assert {k: _scalars(v) for k, v in results.items()} == expected

    def test_hung_pool_trips_progress_deadline(self, fault_env, monkeypatch):
        expected = _expected()
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "3")
        fault_env("worker:hang@1")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        assert {k: _scalars(v) for k, v in results.items()} == expected

    def test_retry_budget_exhaustion_raises(self, fault_env, monkeypatch):
        # No latch: the fault re-arms in every rebuilt pool, so the
        # bounded retry is the only thing standing between a
        # deterministic crash and an infinite supervision loop.
        fault_env("worker:raise@1", latch=False)
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        with pytest.raises(RuntimeError, match="giving up") as excinfo:
            runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        # The last per-pair exception is chained, not swallowed.
        assert isinstance(excinfo.value.__cause__, FaultInjected)


class TestWarmTaskFaults:
    """Faults in the pool's warm tasks, where cold trace npz writes happen.

    Each sweep runs against an empty trace cache of its own, so the
    first warm task generates and commits the first trace npz.
    """

    @pytest.fixture()
    def cold_traces(self, tmp_path, monkeypatch):
        def use(name):
            monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / name))
            # Forked workers would inherit this process's walks.
            clear_walk_memo()

        return use

    def test_warm_kill_rebuilds_pool(self, fault_env, cold_traces, tmp_path):
        cold_traces("serial")
        expected = _expected()
        cold_traces("swept")
        fault_env("trace-npz:kill@1")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        assert (tmp_path / "latch").exists(), "the fault never fired"
        assert {k: _scalars(v) for k, v in results.items()} == expected

    def test_warm_raise_requeues_and_later_warms_flow(
        self, fault_env, cold_traces, tmp_path
    ):
        cold_traces("serial")
        expected = _expected()
        cold_traces("swept")
        fault_env("trace-npz:raise@1")
        order = []
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(
            WORKLOADS, SCHEMES, jobs=2, on_result=lambda w, s, r: order.append(w)
        )
        assert (tmp_path / "latch").exists(), "the fault never fired"
        assert {k: _scalars(v) for k, v in results.items()} == expected
        # The first warm ("gcc") failed: its pairs were requeued to the
        # retry round while the next warm and its pairs went ahead.
        first, second = sorted(WORKLOADS)
        assert order == [second] * len(SCHEMES) + [first] * len(SCHEMES)

    def test_deterministic_warm_error_fails_fast(self, fault_env, monkeypatch):
        def broken_plan(*args, **kwargs):
            raise ValueError("plan builder exploded")

        monkeypatch.setattr("repro.harness.runner.cached_plan", broken_plan)
        before = {p.pid for p in multiprocessing.active_children()}
        runner = Runner(records=RECORDS, use_disk_cache=False)
        first = sorted(WORKLOADS)[0]
        with pytest.raises(RuntimeError, match=repr(first)) as excinfo:
            runner.sweep(WORKLOADS, SCHEMES, jobs=2)
        assert isinstance(excinfo.value.__cause__, ValueError)
        deadline = time.monotonic() + 10
        while {p.pid for p in multiprocessing.active_children()} - before:
            assert time.monotonic() < deadline, "pool workers left behind"
            time.sleep(0.05)


class TestSharedPool:
    """Concurrent sweeps on one resident :class:`WorkerPool`.

    The sweep service runs every cold request through one pool; these
    sweeps share it the same way, one thread each.
    """

    @staticmethod
    def _sweep(pool, pairs, order=None):
        """Sweep ``pairs`` on ``pool`` in a thread; returns (thread, outcome)."""
        outcome = {}

        def run():
            runner = Runner(records=RECORDS, use_disk_cache=False)
            on_result = None
            if order is not None:
                on_result = lambda w, s, r: order.append((w, s))  # noqa: E731
            try:
                results = runner.sweep_pairs(pairs, on_result=on_result, pool=pool)
                outcome["results"] = {k: _scalars(v) for k, v in results.items()}
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, outcome

    @staticmethod
    def _until(condition):
        deadline = time.monotonic() + 30
        while not condition():
            assert time.monotonic() < deadline, "the sweeps never got there"
            time.sleep(0.005)

    @staticmethod
    def _slow_pairs(monkeypatch, seconds):
        """Make every pair take ``seconds`` longer in pools forked after."""
        real = runner_module.run_experiment

        def slow(*args, **kwargs):
            time.sleep(seconds)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_experiment", slow)

    @pytest.mark.parametrize("how", ["replace", "close"])
    def test_queued_sibling_returns_when_the_pool_is_killed(
        self, fault_env, tmp_path, monkeypatch, how
    ):
        """Sweep A's first pair hangs its worker; sweep B's pairs are all
        still queued behind A's when the pool is replaced or killed.
        Both sweeps must return: a replaced pool serves both (neither
        sweep replaced it, so neither pays an attempt), and a killed one
        fails both."""
        expected = _expected()
        fault_env("worker:hang@1")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        first, second = sorted(WORKLOADS)
        pool = WorkerPool(1)
        try:
            a, a_out = self._sweep(pool, [(first, s) for s in SCHEMES])
            self._until(lambda: pool.busy == len(SCHEMES))
            b, b_out = self._sweep(pool, [(second, s) for s in SCHEMES])
            self._until(lambda: pool.busy == 2 * len(SCHEMES))
            self._until((tmp_path / "latch").exists)  # A's worker hangs
            if how == "replace":
                assert pool.replace(pool.executor)
            else:
                pool.close(kill=True)
            for thread in (a, b):
                thread.join(timeout=60)
                assert not thread.is_alive(), "a sweep never returned"
        finally:
            pool.close(kill=True)
        if how == "replace":
            assert pool.replacements == 1
            assert {**a_out["results"], **b_out["results"]} == expected
        else:
            for outcome in (a_out, b_out):
                assert "pool closed" in str(outcome["error"])

    def test_busy_pool_is_not_hung_for_a_queued_sweep(
        self, fault_env, monkeypatch
    ):
        """The progress deadline is the pool's: sweep B waits longer than
        it for its first pair, queued behind A's, but the pool finishes a
        pair every half second, so nothing is killed."""
        expected = _expected()
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "1.2")
        self._slow_pairs(monkeypatch, 0.5)
        first, second = sorted(WORKLOADS)
        pool = WorkerPool(1)
        try:
            a, a_out = self._sweep(pool, [(first, s) for s in SCHEMES])
            self._until(lambda: pool.busy == len(SCHEMES))
            b, b_out = self._sweep(pool, [(second, s) for s in SCHEMES])
            for thread in (a, b):
                thread.join(timeout=60)
                assert not thread.is_alive(), "a sweep never returned"
        finally:
            pool.close(kill=True)
        assert pool.replacements == 0
        assert {**a_out["results"], **b_out["results"]} == expected

    def test_short_sweep_overtakes_a_long_one(self, fault_env, monkeypatch):
        """Each sweep keeps at most ``jobs + 1`` pairs on a shared pool,
        so a one-pair sweep started behind an eight-pair one finishes
        third, not last."""
        self._slow_pairs(monkeypatch, 0.2)
        long_pairs = [(w, s) for w in WORKLOADS for s in ("lru", "srrip", "acic", "opt")]
        short = ("media-streaming", "lru")
        order = []
        pool = WorkerPool(1)
        try:
            a, a_out = self._sweep(pool, long_pairs, order)
            self._until(lambda: pool.busy == pool.jobs + 1)
            b, b_out = self._sweep(pool, [short], order)
            for thread in (a, b):
                thread.join(timeout=60)
                assert not thread.is_alive(), "a sweep never returned"
        finally:
            pool.close(kill=True)
        assert "error" not in a_out and "error" not in b_out
        assert order.index(short) == pool.jobs + 1


class TestCrashedSweepRerun:
    def test_crashed_sweep_reruns_bit_identical(self, fault_env, monkeypatch):
        """Parent dies mid-sweep; rerunning the same sweep finishes it.

        A kill fault with a zero retry budget aborts the sweep partway
        (standing in for a SIGKILLed parent).  The pairs that finished
        are in the disk result cache and nothing else is left behind.  A
        fresh Runner rerunning the sweep serves them from disk, simulates
        only the missing pairs, and produces the full undisturbed cross
        product.
        """
        workloads, schemes = WORKLOADS, ("lru", "srrip", "acic")
        pairs = {(w, s) for w in workloads for s in schemes}
        undisturbed = Runner(records=RECORDS, use_disk_cache=False)
        expected = {
            k: _scalars(v) for k, v in undisturbed.sweep(workloads, schemes).items()
        }

        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        fault_env("worker:kill@3", latch=False)
        crashed = Runner(records=RECORDS, use_disk_cache=True)
        with pytest.raises(RuntimeError):
            crashed.sweep(workloads, schemes, jobs=2)
        probe = Runner(records=RECORDS, use_disk_cache=True)
        survivors = {pair for pair in pairs if probe.cached(*pair) is not None}
        assert survivors, "some pairs completed before the crash"
        assert survivors != pairs, "the crash cut the sweep short"
        leftovers = sorted(p.suffix for p in results_dir().iterdir())
        assert leftovers == [""] + [".json"] * len(survivors), (
            "only finished result entries may survive a crash"
        )
        # The trace-keyed entries workers wrote: at least one per
        # survivor (a worker may finish a pair the parent never admits).
        by_trace = [p.suffix for p in (results_dir() / "by-trace").iterdir()]
        assert by_trace == [".json"] * len(by_trace)
        assert len(by_trace) >= len(survivors)

        monkeypatch.delenv("REPRO_FAULT", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_RETRIES", raising=False)
        faults.reset()
        fired = []
        rerun = Runner(records=RECORDS, use_disk_cache=True)
        results = rerun.sweep(
            workloads, schemes, jobs=2, on_result=lambda w, s, r: fired.append((w, s))
        )
        assert {k: _scalars(v) for k, v in results.items()} == expected
        assert sorted(fired) == sorted(pairs - survivors)


class TestFileMangleFaults:
    """truncate/stale faults at the write hooks; readers must recover."""

    def test_trace_sidecar_stale_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT", "sidecar:stale@1")
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()
        fresh = get_workload("x264").trace(records=RECORDS)
        (npz,) = tmp_path.glob("*.npz")
        sidecar = sidecar_path(npz)
        assert (sidecar / "meta.json").read_bytes() == STALE_BYTES

        clear_walk_memo()  # read the cache, not the resident walk
        loaded = get_workload("x264").trace(records=RECORDS)
        assert np.array_equal(loaded.blocks, fresh.blocks)
        # The mangled sidecar was discarded and rebuilt with real meta.
        meta = json.loads((sidecar / "meta.json").read_text())
        assert meta["records"] == len(fresh)

    def test_trace_npz_truncate_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT", "trace-npz:truncate@1")
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()
        fresh = get_workload("x264").trace(records=RECORDS)
        (npz,) = tmp_path.glob("*.npz")
        truncated_size = npz.stat().st_size
        shutil.rmtree(sidecar_path(npz))  # make the reload read the npz

        monkeypatch.delenv("REPRO_FAULT")
        faults.reset()
        clear_walk_memo()  # read the cache, not the resident walk
        loaded = get_workload("x264").trace(records=RECORDS)
        assert np.array_equal(loaded.blocks, fresh.blocks)
        (npz,) = tmp_path.glob("*.npz")
        assert npz.stat().st_size > truncated_size, "npz was rebuilt whole"
