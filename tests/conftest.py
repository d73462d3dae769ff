"""Shared fixtures: small, deterministic traces and runners.

Tests run on deliberately short traces (10-20k fetch records) so the
whole suite stays fast; the benchmarks exercise full-length runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.runner import _CONTEXTS, Runner
from repro.harness.schemes import SchemeContext
from repro.workloads.generator import WalkParams, generate_trace
from repro.workloads.program import ProgramShape, build_program
from repro.workloads.profiles import clear_walk_memo, get_workload
from repro.workloads.trace import TRACE_STORE

#: Trace length used by integration-level tests.
SMALL_RECORDS = 15_000

#: The committed artifact directories; a test run must leave them as it
#: found them (tests redirect or disable the disk caches they write).
_CACHE_ROOT = Path(__file__).resolve().parent.parent / ".cache"
_GUARDED_DIRS = ("plans", "traces", "results")
_CACHE_SNAPSHOT = pytest.StashKey[dict]()


def _cache_snapshot() -> dict:
    """``(size, st_mtime_ns)`` of every committed ``.npz``/``.json`` artifact.

    Only the top level of each directory holds committed entries: the
    ``*.mmap/`` sidecars and ``results/shards/`` ledgers below it, and
    ``*.tmp*`` writes in flight, are gitignored working state.
    """
    snapshot = {}
    for name in _GUARDED_DIRS:
        directory = _CACHE_ROOT / name
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if path.suffix in (".npz", ".json") and ".tmp" not in path.name:
                st = path.stat()
                snapshot[f".cache/{name}/{path.name}"] = (st.st_size, st.st_mtime_ns)
    return snapshot


def pytest_sessionstart(session):
    # Before collection, so benches that run ahead of tests/ are covered.
    session.config.stash[_CACHE_SNAPSHOT] = _cache_snapshot()


@pytest.fixture(scope="session", autouse=True)
def committed_cache_untouched(request):
    """Fail the session if any test added, rewrote or removed a committed
    cache artifact (same bytes rewritten still moves ``st_mtime_ns``)."""
    stash = request.config.stash
    if _CACHE_SNAPSHOT not in stash:
        stash[_CACHE_SNAPSHOT] = _cache_snapshot()
    yield
    before, after = stash[_CACHE_SNAPSHOT], _cache_snapshot()
    touched = sorted(
        path
        for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )
    if touched:
        pytest.fail(
            "the test run wrote into the committed .cache/:\n  "
            + "\n  ".join(touched),
            pytrace=False,
        )


@pytest.fixture(autouse=True)
def no_resident_walks():
    """Start each test with an empty walk memo and context table: a walk
    or context an earlier test left resident would serve this test's
    traces ahead of the trace cache it may be testing."""
    clear_walk_memo()
    _CONTEXTS.clear()


@pytest.fixture(scope="session")
def small_trace():
    """A short media-streaming trace (cached on disk after first build)."""
    return get_workload("media-streaming").trace(records=SMALL_RECORDS)


@pytest.fixture(scope="session")
def small_context(small_trace):
    return SchemeContext(trace=small_trace)


@pytest.fixture(scope="session")
def tiny_trace():
    """A really small synthetic trace for unit-level engine tests."""
    shape = ProgramShape(
        hot_functions=8,
        groups=2,
        handlers_per_group=6,
        handler_size=(4, 10),
        shared_handlers=4,
        cold_functions=40,
        cold_size=(8, 16),
    )
    walk = WalkParams(
        target_records=4_000, phases=(3, 5), cold_phase_prob=0.3
    )
    program = build_program(shape, seed=3)
    return generate_trace(program, walk, seed=4, name="tiny")


@pytest.fixture()
def runner():
    """In-memory-only runner over short traces."""
    return Runner(records=SMALL_RECORDS, use_disk_cache=False)


@pytest.fixture()
def trace_load_log(tmp_path, monkeypatch):
    """Log one ``<pid> <key>`` line per trace the trace store serves.

    The wrapper over ``TRACE_STORE.get`` is installed before any sweep
    pool starts, so forked workers inherit it; each line is a single
    O_APPEND write, so concurrent workers never interleave.  Under a
    non-fork start method the workers log nothing and the tests'
    "no trace loads were logged" assertion fails loudly.  Returns the
    log path.
    """
    log = tmp_path / "trace-loads.log"
    log.touch()
    real_get = TRACE_STORE.get

    def logged_get(key, *args, **kwargs):
        trace = real_get(key, *args, **kwargs)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {key}\n")
        return trace

    monkeypatch.setattr(TRACE_STORE, "get", logged_get)
    return log
