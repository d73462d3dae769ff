"""Runner disk-cache round-trip and parallel-sweep equivalence tests.

The sweep layer promises two things the benches lean on: a disk-cached
result is indistinguishable from a fresh simulation (same scalars), and
``sweep(jobs=N)`` is indistinguishable from the serial sweep.  These
tests pin both, plus the failure paths (corrupt cache entries, cache
bypass via ``REPRO_NO_DISK_CACHE``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import Counter

import pytest

from repro.frontend.plan import PLAN_STORE, clear_plan_memo
from repro.harness import runner as runner_module
from repro.harness.runner import _CONTEXTS, _SCALAR_FIELDS, Runner, _write_entry
from repro.mem.prepass import PREPASS_STORE, clear_prepass_memo
from repro.workloads.trace import TRACE_STORE

RECORDS = 4_000
WORKLOAD = "x264"


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    return tmp_path


class TestDiskCacheRoundTrip:
    def test_store_then_load_yields_equal_scalars(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        fresh = writer.run(WORKLOAD, "lru")
        assert list(cache_dir.glob("*.json")), "disk entry was not written"

        reader = Runner(records=RECORDS, use_disk_cache=True)
        loaded = reader.run(WORKLOAD, "lru")
        assert _scalars(loaded) == _scalars(fresh)
        # Disk-loaded results carry scalars only, not the live scheme.
        assert loaded.scheme is None

    def test_corrupt_entry_is_unlinked_and_rebuilt(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        fresh = writer.run(WORKLOAD, "lru")
        (entry,) = cache_dir.glob("*.json")
        entry.write_text("{not json")

        reader = Runner(records=RECORDS, use_disk_cache=True)
        assert reader.disk_cache_rejects == 0
        rebuilt = reader.run(WORKLOAD, "lru")
        assert _scalars(rebuilt) == _scalars(fresh)
        # The reject was counted and the corrupt file replaced by a
        # valid, loadable entry.
        assert reader.disk_cache_rejects == 1
        (entry,) = cache_dir.glob("*.json")
        assert json.loads(entry.read_text())["workload"] == WORKLOAD
        assert writer.disk_cache_rejects == 0, "writer never saw corruption"

    def test_missing_fields_treated_as_corrupt(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        fresh = writer.run(WORKLOAD, "lru")
        (entry,) = cache_dir.glob("*.json")
        payload = json.loads(entry.read_text())
        del payload["cycles"]
        entry.write_text(json.dumps(payload))

        reader = Runner(records=RECORDS, use_disk_cache=True)
        assert _scalars(reader.run(WORKLOAD, "lru")) == _scalars(fresh)
        assert reader.disk_cache_rejects == 1

    def test_zero_byte_entry_treated_as_corrupt(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        fresh = writer.run(WORKLOAD, "lru")
        (entry,) = cache_dir.glob("*.json")
        entry.write_bytes(b"")

        reader = Runner(records=RECORDS, use_disk_cache=True)
        assert _scalars(reader.run(WORKLOAD, "lru")) == _scalars(fresh)
        assert reader.disk_cache_rejects == 1
        (entry,) = cache_dir.glob("*.json")
        assert entry.stat().st_size > 0, "entry was rebuilt whole"

    def test_no_disk_cache_env_bypasses(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        runner = Runner(records=RECORDS)
        assert runner.use_disk_cache is False
        runner.run(WORKLOAD, "lru")
        assert not list(cache_dir.glob("*.json"))

    def test_run_live_skips_disk_reads(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        writer.run(WORKLOAD, "acic")
        (entry,) = cache_dir.glob("*.json")
        before = entry.stat().st_mtime_ns

        reader = Runner(records=RECORDS, use_disk_cache=True)
        live = reader.run_live(WORKLOAD, "acic")
        assert live.scheme is not None
        # Nor does it write: the committed entry is left untouched.
        assert entry.stat().st_mtime_ns == before

    def test_store_failure_leaves_no_tmp_file(self, cache_dir):
        """A failing write must not leak the write-then-rename temp file."""
        runner = Runner(records=RECORDS, use_disk_cache=True)
        run = runner.run(WORKLOAD, "lru")
        broken = type(run)(
            **{
                **{k: getattr(run, k) for k in _SCALAR_FIELDS},
                "cycles": object(),  # json.dumps chokes on this
            }
        )
        with pytest.raises(TypeError):
            _write_entry(
                runner._disk_path(WORKLOAD, "broken"), broken, fsync=True
            )
        assert not list(cache_dir.glob("*.tmp"))

    def test_threads_storing_one_pair_never_share_a_temp(self, cache_dir):
        """Eight threads (over two Runners) storing the same pair at once:
        no writer trips over another's temp file, the entry is valid
        JSON with the run's scalars, and no temp file survives."""
        run = Runner(records=RECORDS, use_disk_cache=False).run(WORKLOAD, "lru")
        runners = [Runner(records=RECORDS, use_disk_cache=True) for _ in range(2)]
        barrier = threading.Barrier(8)
        errors = []

        def store(runner):
            barrier.wait()
            try:
                for _ in range(50):
                    _write_entry(
                        runner._disk_path(WORKLOAD, "lru"), run, fsync=True
                    )
            except Exception as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=store, args=(runners[k % 2],))
                for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        (entry,) = cache_dir.glob("*.json")
        assert json.loads(entry.read_text()) == _scalars(run)
        assert [p.name for p in cache_dir.iterdir()] == [entry.name]


class TestSweep:
    WORKLOADS = (WORKLOAD, "gcc")
    SCHEMES = ("lru", "srrip")

    def test_serial_sweep_covers_cross_product(self):
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep(self.WORKLOADS, self.SCHEMES)
        assert set(results) == {
            (w, s) for w in self.WORKLOADS for s in self.SCHEMES
        }

    def test_parallel_sweep_equals_serial(self):
        serial = Runner(records=RECORDS, use_disk_cache=False)
        parallel = Runner(records=RECORDS, use_disk_cache=False)
        expected = serial.sweep(self.WORKLOADS, self.SCHEMES, jobs=1)
        actual = parallel.sweep(self.WORKLOADS, self.SCHEMES, jobs=2)
        assert set(actual) == set(expected)
        for key in expected:
            assert _scalars(actual[key]) == _scalars(expected[key]), key

    def test_parallel_sweep_populates_both_cache_layers(self, cache_dir):
        runner = Runner(records=RECORDS, use_disk_cache=True)
        results = runner.sweep(self.WORKLOADS, self.SCHEMES, jobs=2)
        # Memory layer: a repeat sweep returns the identical objects.
        again = runner.sweep(self.WORKLOADS, self.SCHEMES, jobs=2)
        assert all(again[k] is results[k] for k in results)
        # Disk layer: one JSON entry per pair.
        assert len(list(cache_dir.glob("*.json"))) == len(results)

    def test_workers_write_the_entries_before_the_parent_reports(
        self, cache_dir, monkeypatch
    ):
        """The worker that answers a pair writes its result entries: by
        the time ``on_result`` fires in the parent, the pair's
        records-keyed entry exists and parses, and the parent has made
        no result write of its own."""
        parent = os.getpid()
        parent_writes = []
        real = runner_module.write_atomic

        def recording(path, data, fsync=False):
            if os.getpid() == parent:
                parent_writes.append(path)
            real(path, data, fsync=fsync)

        # Patched before the fork, so the workers write through it too.
        monkeypatch.setattr(runner_module, "write_atomic", recording)
        runner = Runner(records=RECORDS, use_disk_cache=True)
        reported = []

        def on_result(workload, scheme, result):
            entry = json.loads(runner._disk_path(workload, scheme).read_text())
            assert entry == _scalars(result)
            reported.append((workload, scheme))

        results = runner.sweep(
            self.WORKLOADS, self.SCHEMES, jobs=2, on_result=on_result
        )
        assert sorted(reported) == sorted(results)
        assert parent_writes == []
        assert len(list(cache_dir.glob("*.json"))) == len(results)

    def test_warm_sweep_uses_disk_without_forking(self, cache_dir):
        writer = Runner(records=RECORDS, use_disk_cache=True)
        expected = writer.sweep(self.WORKLOADS, self.SCHEMES, jobs=1)

        reader = Runner(records=RECORDS, use_disk_cache=True)
        # All pairs are disk hits; jobs=8 must not matter (and must not
        # respawn workers — observable here only through equality).
        warm = reader.sweep(self.WORKLOADS, self.SCHEMES, jobs=8)
        for key in expected:
            assert _scalars(warm[key]) == _scalars(expected[key])

    def test_resident_workers_deserialize_each_trace_once(
        self, cache_dir, tmp_path, monkeypatch, trace_load_log
    ):
        """Sweep workers load each workload's trace at most once.

        The pool initializer makes workers resident: one SchemeContext
        per workload per process, traces served from mmap sidecars.
        ``trace_load_log`` records one (pid, key) line per actual
        trace deserialization; with 5 schemes per workload a per-pair
        loader would log each workload up to 5x per worker, and the
        parent must log none.  This does not pin which context a third
        one evicts: on this small grid an LRU table passes too.
        ``tests/test_residency.py``'s replay of the per-call FIFO
        schedule is the eviction pin.
        """
        trace_cache = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(trace_cache))
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))

        workloads = (WORKLOAD, "gcc", "data-caching", "web-search", "tpcc")
        schemes = ("lru", "srrip", "acic", "opt", "ghrp")
        runner = Runner(records=RECORDS, use_disk_cache=True)
        results = runner.sweep(workloads, schemes, jobs=2)
        assert len(results) == 25

        loads = Counter()
        for line in trace_load_log.read_text().splitlines():
            pid, key = line.split(" ", 1)
            loads[(int(pid), key)] += 1
        assert loads, "no trace loads were logged"
        # Every worker deserialized each workload's trace at most once
        # (its resident context, built by the workload's warm task or
        # by the first pair of that workload it picked up); the parent
        # built none.
        assert max(loads.values()) == 1
        worker_pids = {pid for pid, _ in loads}
        assert os.getpid() not in worker_pids, "the parent loaded a trace"
        assert worker_pids, "sweep did not fan out to worker processes"

    def test_parallel_sweep_builds_nothing_in_parent(
        self, cache_dir, tmp_path, monkeypatch
    ):
        """Warm tasks run in the pool: the parent holds no artifact.

        A cold jobs=2 sweep with the disk cache on leaves the parent
        with no resident context and empty trace/plan/pre-pass memos,
        and its results equal a serial sweep's bit-for-bit.
        """
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
        clear_plan_memo()
        clear_prepass_memo()
        workloads = (WORKLOAD, "gcc", "data-caching")
        schemes = ("lru", "acic", "ghrp")
        runner = Runner(records=RECORDS, use_disk_cache=True)
        results = runner.sweep(workloads, schemes, jobs=2)

        assert not _CONTEXTS
        for store in (TRACE_STORE, PLAN_STORE, PREPASS_STORE):
            assert store.memo_size() == 0, store.kind

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "serial"))
        serial = Runner(records=RECORDS, use_disk_cache=True)
        expected = serial.sweep(workloads, schemes, jobs=1)
        assert {k: _scalars(v) for k, v in results.items()} == {
            k: _scalars(v) for k, v in expected.items()
        }

    def test_first_result_arrives_before_later_workloads_are_warmed(
        self, cache_dir, tmp_path, monkeypatch
    ):
        """Warms run one workload ahead of the pairs, not all up front.

        ``warm(w_k+1)`` is only submitted once ``warm(w_k)`` has
        completed, and ``w1``'s first pair starts beside ``warm(w2)``:
        for the last of five workloads to be written before the first
        result, that one pair would have to outlast three more warms
        run back to back on the other worker.
        """
        trace_cache = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(trace_cache))
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
        workloads = ("data-caching", "gcc", "tpcc", "web-search", WORKLOAD)
        written_at_first_result = []

        def on_result(workload, scheme, result):
            if not written_at_first_result:
                written_at_first_result.append(
                    {p.name for p in trace_cache.glob("*.npz")}
                )

        runner = Runner(records=RECORDS, use_disk_cache=True)
        results = runner.sweep(workloads, self.SCHEMES, jobs=2, on_result=on_result)
        assert len(results) == len(workloads) * len(self.SCHEMES)
        (written,) = written_at_first_result
        assert not any(name.startswith(f"{WORKLOAD}-") for name in written)
        assert any(p.name.startswith(f"{WORKLOAD}-") for p in trace_cache.glob("*.npz"))

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep((WORKLOAD,), self.SCHEMES)
        assert len(results) == 2

    def test_bad_jobs_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        with pytest.raises(ValueError):
            runner.sweep((WORKLOAD,), ("lru",))
