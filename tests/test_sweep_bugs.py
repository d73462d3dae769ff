"""Regression tests for the sweep-path bugs a long-lived process exposes.

Three bugs, found while building the sweep service, each pinned here:

* ``_sweep_parallel`` used to swallow per-pair exceptions and retry a
  deterministic crash ``REPRO_SWEEP_RETRIES`` times before raising a
  bare RuntimeError with the original traceback lost.  Now a
  deterministic worker error fails fast — one attempt, original
  exception chained as ``__cause__``.
* ``Runner._contexts`` grew without bound: every workload a runner ever
  touched kept its trace/plan/oracle resident forever.  Now an LRU
  capped by ``REPRO_CONTEXT_CACHE`` (default 4), and eviction is
  correctness-free: a rebuilt context reproduces identical scalars.
* The sweep journal was one shared path per configuration, so two
  concurrent sweeps of the same config interleaved records and the
  first ``finish()`` deleted the other's crash record.  Now each
  ``sweep_pairs`` call journals to its own pid/uuid-suffixed file and
  ``resume=True`` replays *all* surviving journals.
"""

from __future__ import annotations

import os
import threading
import uuid

import pytest

from repro.harness import schemes as schemes_mod
from repro.harness.runner import _SCALAR_FIELDS, Runner, _SweepJournal
from repro.uarch.timing import RunResult

RECORDS = 2_000


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Journals land beside the results cache; keep both in tmp."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


def _planted(workload: str, scheme: str, cycles: float) -> RunResult:
    return RunResult(
        workload=workload,
        scheme_name=scheme,
        prefetcher_name="fdp",
        instructions=1,
        accesses=2,
        cycles=cycles,
        demand_misses=3,
        late_prefetch_misses=4,
        prefetches_issued=5,
        mispredicted_transitions=6,
    )


@pytest.fixture()
def poisoned_scheme(tmp_path, monkeypatch):
    """Register a scheme whose factory always raises, counting attempts.

    Attempt counting works across the process boundary: each factory
    call touches a unique file, so the parent can assert how many times
    sweep workers (forked after registration) actually tried the pair.
    """
    attempts = tmp_path / "attempts"
    attempts.mkdir()

    def factory(ctx):
        (attempts / f"{os.getpid()}-{uuid.uuid4().hex}").touch()
        raise ValueError("poisoned scheme factory")

    monkeypatch.setitem(schemes_mod._REGISTRY, "poisoned", factory)
    monkeypatch.setitem(schemes_mod._NEEDS_ORACLE, "poisoned", False)
    monkeypatch.setitem(
        schemes_mod._DESCRIPTIONS, "poisoned", "always fails (test only)"
    )
    return attempts


class TestDeterministicFailuresFailFast:
    def test_parallel_sweep_chains_cause_and_tries_once(self, poisoned_scheme):
        """A deterministic worker error: no retry loop, cause preserved."""
        runner = Runner(records=RECORDS, use_disk_cache=False)
        with pytest.raises(RuntimeError, match="deterministically") as excinfo:
            runner.sweep(("x264",), ("lru", "poisoned"), jobs=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert "poisoned scheme factory" in str(cause)
        assert len(list(poisoned_scheme.iterdir())) == 1, (
            "a deterministic failure must not be requeued"
        )

    def test_serial_sweep_propagates_original_exception(self, poisoned_scheme):
        runner = Runner(records=RECORDS, use_disk_cache=False)
        with pytest.raises(ValueError, match="poisoned scheme factory"):
            runner.sweep(("x264",), ("poisoned",))


class TestContextCacheBound:
    def test_lru_keeps_at_most_cap_contexts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "2")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        first = runner.context_for("x264")
        runner.context_for("gcc")
        assert set(runner._contexts) == {"x264", "gcc"}
        runner.context_for("media-streaming")
        assert set(runner._contexts) == {"gcc", "media-streaming"}, (
            "the least-recently-used context must be evicted at the cap"
        )
        # Touching a resident workload refreshes it instead of rebuilding.
        again = runner.context_for("media-streaming")
        assert again is runner._contexts["media-streaming"]
        assert first is not runner.context_for("x264"), (
            "an evicted context is rebuilt on next use"
        )

    def test_eviction_is_correctness_free(self, monkeypatch):
        """Results via a cap-1 (thrashing) runner == unbounded results."""
        workloads = ("x264", "gcc", "media-streaming")
        reference = Runner(records=RECORDS, use_disk_cache=False)
        expected = {
            k: _scalars(v)
            for k, v in reference.sweep(workloads, ("lru",)).items()
        }

        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "1")
        thrashing = Runner(records=RECORDS, use_disk_cache=False)
        results = thrashing.sweep(workloads, ("lru",))
        assert {k: _scalars(v) for k, v in results.items()} == expected
        assert len(thrashing._contexts) == 1
        # Revisit the first (long-evicted) workload with a new scheme:
        # the reloaded context must reproduce identical physics.
        rebuilt = thrashing.run("x264", "srrip")
        assert _scalars(rebuilt) == _scalars(reference.run("x264", "srrip"))


class TestPerSweepJournals:
    def test_journal_paths_are_unique_per_sweep_call(self):
        runner = Runner(records=RECORDS, use_disk_cache=False)
        paths = {runner._new_journal_path() for _ in range(8)}
        assert len(paths) == 8
        prefix = runner._journal_prefix()
        assert all(p.name.startswith(prefix) for p in paths)

    def test_resume_replays_every_stale_journal(self):
        """Two crashed sweeps of one config: resume recovers both."""
        runner = Runner(records=RECORDS, use_disk_cache=False)
        for workload, cycles in (("x264", 111.0), ("gcc", 222.0)):
            journal = _SweepJournal(runner._new_journal_path())
            journal.record(workload, "lru", _planted(workload, "lru", cycles))
            journal._fh.close()
        assert len(runner._stale_journal_paths()) == 2

        results = runner.sweep(("x264", "gcc"), ("lru",), resume=True)
        assert results[("x264", "lru")].cycles == 111.0
        assert results[("gcc", "lru")].cycles == 222.0
        assert not runner._stale_journal_paths(), (
            "a completed resume must clean up every journal it replayed"
        )

    def test_concurrent_sweeps_do_not_share_or_steal_journals(self):
        """Sweep B finishing must not delete sweep A's live journal."""
        runner_a = Runner(records=RECORDS, use_disk_cache=False)
        runner_b = Runner(records=RECORDS, use_disk_cache=False)
        recorded = threading.Event()
        release = threading.Event()
        failure = []

        def hold(workload, scheme, result):
            recorded.set()
            if not release.wait(timeout=60):
                failure.append("release never fired")

        thread = threading.Thread(
            target=lambda: runner_a.sweep_pairs(
                [("x264", "lru")], on_result=hold
            ),
            daemon=True,
        )
        thread.start()
        assert recorded.wait(timeout=120), "sweep A never completed a pair"
        # A's journal exists (record happens before on_result) and is
        # the only one: B has not started.
        journals_a = runner_a._stale_journal_paths()
        assert len(journals_a) == 1

        # B: same configuration, different pair, runs start to finish
        # while A is mid-sweep.  Its finish() must only remove its own
        # journal.
        runner_b.sweep_pairs([("gcc", "lru")])
        assert runner_a._stale_journal_paths() == journals_a, (
            "sweep B's completion deleted sweep A's live journal"
        )

        release.set()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert not failure
        assert not runner_a._stale_journal_paths(), (
            "sweep A's own completion must remove its journal"
        )

    def test_on_result_fires_only_for_fresh_simulations(self):
        runner = Runner(records=RECORDS, use_disk_cache=False)
        fired = []
        runner.sweep_pairs(
            [("x264", "lru")], on_result=lambda w, s, r: fired.append((w, s))
        )
        assert fired == [("x264", "lru")]

        fired.clear()
        runner.sweep_pairs(
            [("x264", "lru")], on_result=lambda w, s, r: fired.append((w, s))
        )
        assert fired == [], "cache hits must not fire on_result"
