"""The shared artifact store under concurrency and failure.

Every cached numpy artifact (traces, frontend plans, entangling plans,
replacement pre-passes) goes through
:class:`repro.common.artifacts.ArtifactStore`.  These tests pin what the
store owes a multi-threaded caller: concurrent cold writers of one key
never collide on a temp name, a committed sidecar stays visible while
other writers commit theirs, an artifact lives as long as a trace
holds it while threads race lookups, a failed write leaves no temp
file behind, and the npz it writes (deflated at level 1) is a plain
``np.load`` archive.
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.common import artifacts
from repro.common.artifacts import ArtifactStore, sidecar_path, write_npz
from repro.frontend.plan import (
    PLAN_ARRAY_FIELDS,
    FrontendPlan,
    build_plan,
    cached_plan,
    clear_plan_memo,
)
from repro.mem.prepass import build_replacement_prepass
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.trace import TRACE_ARRAY_FIELDS, TRACE_STORE, Trace

from test_frontend_plan import random_trace

THREADS = 8
REPO = Path(__file__).resolve().parents[1]


def _hammer(fn, switch_interval=None):
    """Run ``fn`` on ``THREADS`` threads released together.

    Returns ``(results, errors)``; a shortened ``switch_interval``
    makes the interpreter interleave the threads more finely.
    """
    barrier = threading.Barrier(THREADS)
    results, errors = [], []

    def worker():
        barrier.wait()
        try:
            results.append(fn())
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    old = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return results, errors


def _temps(directory):
    return sorted(p.name for p in directory.iterdir() if ".tmp" in p.name)


def _fail(*args, **kwargs):
    raise RuntimeError("injected write failure")


@pytest.fixture()
def plan_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_plan_memo()
    yield tmp_path
    clear_plan_memo()


class TestConcurrentWriters:
    def test_cold_cached_plan_from_many_threads(self, plan_cache):
        trace = random_trace(40, n=2000)
        plans, errors = _hammer(lambda: cached_plan(trace, DEFAULT_MACHINE, "fdp"))
        assert errors == []
        assert len(plans) == THREADS
        reference = build_plan(trace, DEFAULT_MACHINE, "fdp")
        for plan in plans:
            for name in PLAN_ARRAY_FIELDS:
                assert np.array_equal(getattr(plan, name), getattr(reference, name))
        assert _temps(plan_cache) == []

    def test_trace_saves_to_one_path_from_many_threads(self, tmp_path):
        trace = random_trace(41, n=2000)
        path = tmp_path / "trace.npz"
        _, errors = _hammer(lambda: trace.save(path))
        assert errors == []
        loaded = Trace.load(path)
        for name in TRACE_ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(trace, name))
        assert sidecar_path(path).is_dir()
        assert _temps(tmp_path) == []


class TestSidecarCommit:
    """Two writers of one sidecar: the first commit stays visible."""

    def test_second_writer_keeps_the_winners_sidecar(self, tmp_path):
        trace = random_trace(45, n=1000)
        path = tmp_path / "trace.npz"
        trace.save(path)
        sidecar = sidecar_path(path)
        committed = sidecar.stat().st_ino
        TRACE_STORE.write_sidecar(trace, path)
        assert sidecar.stat().st_ino == committed
        assert _temps(tmp_path) == []

    def test_sidecar_of_another_npz_is_replaced(self, tmp_path):
        path = tmp_path / "trace.npz"
        random_trace(46, n=1000).save(path)
        trace = random_trace(47, n=1200)
        trace.save(path)  # a new npz: the old sidecar is stale
        loaded = TRACE_STORE.read_sidecar(sidecar_path(path))
        assert np.array_equal(loaded.blocks, trace.blocks)
        assert _temps(tmp_path) == []

    def test_stale_replacer_puts_back_a_valid_sidecar(self, tmp_path, monkeypatch):
        """Writer X finds a stale sidecar; before X renames it aside,
        writer Y replaces it with a valid one.  X's rename aside then
        takes Y's sidecar, and X puts it back instead of committing."""
        path = tmp_path / "trace.npz"
        random_trace(49, n=1000).save(path)
        stale = tmp_path / "stale"
        shutil.copytree(sidecar_path(path), stale)
        trace = random_trace(50, n=1200)
        trace.save(path)
        sidecar = sidecar_path(path)
        shutil.rmtree(sidecar)
        stale.rename(sidecar)
        real_mkdtemp = tempfile.mkdtemp
        committed = []

        def mkdtemp(*args, suffix="", **kwargs):
            if suffix == ".old.tmp" and not committed:
                committed.append(None)  # Y, below, takes the real mkdtemp
                TRACE_STORE.write_sidecar(trace, path)
                committed[0] = sidecar.stat().st_ino
            return real_mkdtemp(*args, suffix=suffix, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        TRACE_STORE.write_sidecar(trace, path)
        assert committed[0] is not None
        assert sidecar.stat().st_ino == committed[0]
        loaded = TRACE_STORE.read_sidecar(sidecar)
        assert np.array_equal(loaded.blocks, trace.blocks)
        assert _temps(tmp_path) == []

    def test_readers_always_find_the_sidecar(self, tmp_path):
        trace = random_trace(48, n=2000)
        path = tmp_path / "trace.npz"
        trace.save(path)
        meta = sidecar_path(path) / "meta.json"
        stop = threading.Event()
        gaps = []

        def watch():
            while not stop.is_set():
                if not meta.exists():
                    gaps.append(True)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            _, errors = _hammer(
                lambda: [TRACE_STORE.write_sidecar(trace, path) for _ in range(20)],
                switch_interval=1e-6,
            )
        finally:
            stop.set()
            watcher.join(timeout=60)
        assert errors == []
        assert gaps == []
        assert _temps(tmp_path) == []


class _Toy:
    """A store artifact: weakly referable, as plans and pre-passes are."""

    def __init__(self, key: str) -> None:
        self.key = key


class _Owner:
    """A trace stand-in: hashed by identity, weakly referable, sized."""

    def __len__(self) -> int:
        return 1


def _no_build():
    raise AssertionError("an artifact its trace holds was built again")


class TestResidency:
    def test_lookups_racing_traces_that_come_and_go(self):
        """Threads race lookups while each drops its trace after one use.

        A trace keeps what it was given (a second lookup never builds),
        the store never holds more than one artifact per name, and once
        the traces are gone it holds none.
        """
        store = ArtifactStore(
            "toy", _Toy, (),
            cache_env="REPRO_PLAN_CACHE", cache_subdir="plans",
        )
        keys = ("a", "b", "c")

        def churn():
            for i in range(3000):
                key = keys[i % len(keys)]
                owner = _Owner()
                got = store.for_trace(owner, key, lambda: _Toy(key), use_disk=False)
                assert got.key == key
                assert store.for_trace(owner, key, _no_build, use_disk=False) is got
                assert store.memo_size() <= len(keys)
            return True

        results, errors = _hammer(churn, switch_interval=1e-6)
        assert errors == []
        assert results == [True] * THREADS
        gc.collect()
        assert store.memo_size() == 0


class TestFailedWrites:
    @pytest.mark.parametrize("kind", ["trace", "plan", "prepass"])
    def test_failed_npz_write_reaps_its_temp(self, kind, tmp_path, monkeypatch):
        trace = random_trace(42, n=500)
        artifact = {
            "trace": lambda: trace,
            "plan": lambda: build_plan(trace, DEFAULT_MACHINE, "fdp"),
            "prepass": lambda: build_replacement_prepass(trace),
        }[kind]()
        monkeypatch.setattr(artifacts, "write_npz", _fail)
        with pytest.raises(RuntimeError, match="injected write failure"):
            artifact.save(tmp_path / "entry.npz")
        assert list(tmp_path.iterdir()) == []

    def test_failed_cold_cached_plan_propagates(self, plan_cache, monkeypatch):
        monkeypatch.setattr(artifacts, "write_npz", _fail)
        with pytest.raises(RuntimeError, match="injected write failure"):
            cached_plan(random_trace(43, n=500), DEFAULT_MACHINE, "fdp")
        assert list(plan_cache.iterdir()) == []

    def test_failed_sidecar_write_keeps_the_npz(self, tmp_path, monkeypatch):
        plan = build_plan(random_trace(44, n=500), DEFAULT_MACHINE, "fdp")
        path = tmp_path / "entry.npz"

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", disk_full)
        plan.save(path)  # the sidecar is best effort
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["entry.npz"]
        assert FrontendPlan.load(path).fingerprint == plan.fingerprint


class TestNpzFormat:
    def test_store_written_npz_is_a_plain_npz(self, tmp_path):
        trace = random_trace(45, n=2000)
        plan = build_plan(trace, DEFAULT_MACHINE, "fdp")
        path = tmp_path / "entry.npz"
        plan.save(path)
        with np.load(path) as data:
            for name in PLAN_ARRAY_FIELDS:
                assert np.array_equal(data[name], getattr(plan, name))
                assert data[name].dtype == getattr(plan, name).dtype
            assert bytes(data["fingerprint"]).decode() == plan.fingerprint
            assert int(data["format"]) == plan.meta()["format"]

    def test_write_npz_round_trips_every_member(self, tmp_path):
        members = {
            "ints": np.arange(1000, dtype=np.int64),
            "bytes": np.frombuffer(b"\x00\xff" * 64, dtype=np.uint8),
            "scalar": np.int64(7),
            "label": np.bytes_(b"media-streaming"),
            "empty": np.zeros(0, dtype=np.int32),
        }
        path = tmp_path / "members.npz"
        write_npz(path, members)
        with np.load(path) as data:
            assert sorted(data.files) == sorted(members)
            for key, value in members.items():
                assert np.array_equal(data[key], np.asarray(value))
                assert data[key].dtype == np.asarray(value).dtype

    def test_level6_npz_still_reads(self, tmp_path):
        """An entry ``np.savez_compressed`` wrote (zlib level 6, how every
        committed ``.cache`` npz was written) loads unchanged."""
        plan = build_plan(random_trace(46, n=2000), DEFAULT_MACHINE, "fdp")
        members = {
            k: np.bytes_(v.encode()) if isinstance(v, str) else np.int64(v)
            for k, v in plan.meta().items()
        }
        members.update((f, getattr(plan, f)) for f in PLAN_ARRAY_FIELDS)
        path = tmp_path / "entry.npz"
        np.savez_compressed(path, **members)
        loaded = FrontendPlan.load(path)
        assert loaded.meta() == plan.meta()
        for name in PLAN_ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(plan, name))

    def test_committed_npz_still_reads(self):
        committed = sorted(
            p for p in (REPO / ".cache" / "plans").glob("*.npz")
            if ".pre" not in p.name
        )
        if not committed:
            pytest.skip("no committed plan cache")
        for path in committed[:3]:
            plan = FrontendPlan.load(path)
            with np.load(path) as data:
                assert bytes(data["fingerprint"]).decode() == plan.fingerprint
                for name in PLAN_ARRAY_FIELDS:
                    assert np.array_equal(data[name], getattr(plan, name))
