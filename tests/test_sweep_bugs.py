"""Regression tests for the sweep-path bugs a long-lived process exposes.

Three sweep-path bugs, each pinned here:

* ``_sweep_parallel`` used to swallow per-pair exceptions and retry a
  deterministic crash ``REPRO_SWEEP_RETRIES`` times before raising a
  bare RuntimeError with the original traceback lost.  Now a
  deterministic worker error fails fast — one attempt, original
  exception chained as ``__cause__``.
* A runner's contexts grew without bound: every workload it ever
  touched kept its trace/plan/oracle resident forever.  Now every
  runner and sweep worker of a process draws on one table capped by
  ``_CONTEXT_CAP`` (2), a new context evicts the one workload-major
  dispatch has passed, and eviction is correctness-free: a rebuilt
  context reproduces identical scalars.
* Every sweep wrote a per-call journal into the results directory,
  even with the disk cache off, and only a resuming sweep that no
  caller ever made removed one, so each interrupted sweep left a file
  behind for good.  Now the result cache is the only per-pair record:
  an interrupted sweep without the disk cache writes nothing there,
  and ``on_result`` still fires only for fresh simulations.
"""

from __future__ import annotations

import os
import uuid

import pytest

from repro.harness import runner as runner_module
from repro.harness import schemes as schemes_mod
from repro.common.durable import results_dir
from repro.harness.runner import _CONTEXT_CAP, _CONTEXTS, _SCALAR_FIELDS, Runner

RECORDS = 2_000


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep the results directory in tmp, where tests can inspect it."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


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
    def test_keeps_at_most_cap_contexts(self):
        runner = Runner(records=RECORDS, use_disk_cache=False)

        def resident():
            assert len(_CONTEXTS) <= _CONTEXT_CAP
            return {workload for workload, _, _ in _CONTEXTS}

        first = runner.context_for("gcc")
        runner.context_for("media-streaming")
        assert resident() == {"gcc", "media-streaming"}
        runner.context_for("x264")
        assert resident() == {"media-streaming", "x264"}, (
            "a new context must evict the one workload-major dispatch has passed"
        )
        # A resident context is served again, to any runner of the
        # configuration, instead of being rebuilt.
        again = runner.context_for("media-streaming")
        other = Runner(records=RECORDS, use_disk_cache=False)
        assert other.context_for("media-streaming") is again
        assert first is not runner.context_for("gcc"), (
            "an evicted context is rebuilt on next use"
        )

    def test_eviction_is_correctness_free(self, monkeypatch):
        """Results via a cap-1 (thrashing) table == results of a table
        that holds every workload."""
        workloads = ("x264", "gcc", "media-streaming")
        monkeypatch.setattr(runner_module, "_CONTEXT_CAP", len(workloads))
        reference = Runner(records=RECORDS, use_disk_cache=False)
        expected = {
            k: _scalars(v)
            for k, v in reference.sweep(workloads, ("lru", "srrip")).items()
        }
        assert len(_CONTEXTS) == len(workloads)

        _CONTEXTS.clear()
        monkeypatch.setattr(runner_module, "_CONTEXT_CAP", 1)
        thrashing = Runner(records=RECORDS, use_disk_cache=False)
        results = thrashing.sweep(workloads, ("lru",))
        assert {k: _scalars(v) for k, v in results.items()} == {
            k: v for k, v in expected.items() if k[1] == "lru"
        }
        assert len(_CONTEXTS) == 1
        # Revisit the first (long-evicted) workload with a new scheme:
        # the reloaded context must reproduce identical physics.
        rebuilt = thrashing.run("x264", "srrip")
        assert _scalars(rebuilt) == expected[("x264", "srrip")]


class TestSweepLeavesOnlyResults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_sweep_without_disk_cache_writes_nothing(self, jobs):
        """Ctrl-C after the first finished pair: nothing lands on disk."""
        runner = Runner(records=RECORDS, use_disk_cache=False)

        def interrupt(workload, scheme, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            runner.sweep(("x264",), ("lru", "srrip"), jobs=jobs, on_result=interrupt)
        leftovers = list(results_dir().iterdir()) if results_dir().exists() else []
        assert leftovers == []

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
