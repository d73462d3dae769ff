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
import os
import pickle
import shutil
import time

import numpy as np
import pytest

from repro.common import faults
from repro.harness.faults import (
    FaultInjected,
    FaultPlan,
    STALE_BYTES,
    fire,
)
from repro.harness.runner import _SCALAR_FIELDS, Runner, _SweepJournal
from repro.uarch.timing import RunResult
from repro.workloads.profiles import get_workload
from repro.workloads.trace import mmap_sidecar_path

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


class TestJournalResume:
    def test_crashed_sweep_resumes_bit_identical(self, fault_env, monkeypatch):
        """Parent dies mid-sweep; ``resume=True`` finishes the job.

        A kill fault with a zero retry budget aborts the sweep partway
        (standing in for a SIGKILLed parent: the journal survives with
        only the completed pairs).  A fresh Runner resuming from that
        journal must replay the survivors unsimulated and produce the
        full undisturbed cross product.
        """
        workloads, schemes = WORKLOADS, ("lru", "srrip", "acic")
        undisturbed = Runner(records=RECORDS, use_disk_cache=False)
        expected = {
            k: _scalars(v) for k, v in undisturbed.sweep(workloads, schemes).items()
        }

        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        fault_env("worker:kill@3", latch=False)
        crashed = Runner(records=RECORDS, use_disk_cache=False)
        with pytest.raises(RuntimeError):
            crashed.sweep(workloads, schemes, jobs=2)
        journals = crashed._stale_journal_paths()
        assert journals, "aborted sweep must leave its journal"
        survivors = [
            entry for path in journals for entry in _SweepJournal(path).replay()
        ]
        assert survivors, "some pairs completed before the crash"

        monkeypatch.delenv("REPRO_FAULT", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_RETRIES", raising=False)
        faults.reset()
        resumed = Runner(records=RECORDS, use_disk_cache=False)
        results = resumed.sweep(workloads, schemes, jobs=2, resume=True)
        assert {k: _scalars(v) for k, v in results.items()} == expected
        assert not resumed._stale_journal_paths(), (
            "completed sweep must drop its own journal and the stale "
            "ones it replayed"
        )

    def test_resume_replays_journal_without_simulating(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        planted = RunResult(
            workload=WORKLOADS[0],
            scheme_name="lru",
            prefetcher_name="fdp",
            instructions=1,
            accesses=2,
            cycles=123456.0,
            demand_misses=3,
            late_prefetch_misses=4,
            prefetches_issued=5,
            mispredicted_transitions=6,
        )
        journal = _SweepJournal(runner._new_journal_path())
        journal.record(WORKLOADS[0], "lru", planted)
        journal._fh.close()

        results = runner.sweep((WORKLOADS[0],), ("lru",), resume=True)
        # The planted scalars came back: the pair was replayed, not rerun.
        assert results[(WORKLOADS[0], "lru")].cycles == 123456.0
        assert not runner._stale_journal_paths()

    def test_without_resume_journal_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        runner = Runner(records=RECORDS, use_disk_cache=False)
        planted = RunResult(
            workload=WORKLOADS[0],
            scheme_name="lru",
            prefetcher_name="fdp",
            instructions=1,
            accesses=2,
            cycles=123456.0,
            demand_misses=3,
            late_prefetch_misses=4,
            prefetches_issued=5,
            mispredicted_transitions=6,
        )
        planted_path = runner._new_journal_path()
        journal = _SweepJournal(planted_path)
        journal.record(WORKLOADS[0], "lru", planted)
        journal._fh.close()

        results = runner.sweep((WORKLOADS[0],), ("lru",))
        assert results[(WORKLOADS[0], "lru")].cycles != 123456.0
        # Without resume the foreign journal is not consumed either: it
        # still holds its crash record for a later resuming sweep.
        assert planted_path.exists()

    def test_replay_tolerates_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = _SweepJournal(path)
        good = {
            "workload": "x264",
            "scheme": "lru",
            "scalars": {k: 1 for k in _SCALAR_FIELDS},
        }
        path.write_text(
            "not json at all\n"
            + json.dumps(good)
            + "\n"
            + json.dumps({"workload": "gcc"})  # missing fields
            + "\n"
            + json.dumps(good)[: 20]  # torn tail from a mid-append kill
        )
        entries = list(journal.replay())
        assert entries == [("x264", "lru", {k: 1 for k in _SCALAR_FIELDS})]

    def test_finish_unlinks(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = _SweepJournal(path)
        journal.record(
            "x264",
            "lru",
            RunResult(
                workload="x264",
                scheme_name="lru",
                prefetcher_name="fdp",
                instructions=1,
                accesses=1,
                cycles=1.0,
                demand_misses=0,
                late_prefetch_misses=0,
                prefetches_issued=0,
                mispredicted_transitions=0,
            ),
        )
        assert path.exists()
        journal.finish()
        assert not path.exists()


class TestFileMangleFaults:
    """truncate/stale faults at the write hooks; readers must recover."""

    def test_trace_sidecar_stale_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT", "sidecar:stale@1")
        monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
        faults.reset()
        fresh = get_workload("x264").trace(records=RECORDS)
        (npz,) = tmp_path.glob("*.npz")
        sidecar = mmap_sidecar_path(npz)
        assert (sidecar / "meta.json").read_bytes() == STALE_BYTES

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
        shutil.rmtree(mmap_sidecar_path(npz))  # make the reload read the npz

        monkeypatch.delenv("REPRO_FAULT")
        faults.reset()
        loaded = get_workload("x264").trace(records=RECORDS)
        assert np.array_equal(loaded.blocks, fresh.blocks)
        (npz,) = tmp_path.glob("*.npz")
        assert npz.stat().st_size > truncated_size, "npz was rebuilt whole"
