"""Sweep results keyed by the trace they simulate.

Every length a workload is asked for is its walk cut at the first
request entry at or past that length, so several lengths cut one trace.
A run reads only its trace, scheme, prefetcher and machine, so the
runner keeps a *trace-keyed* result entry beside each records-keyed one
and answers a pair from it when another length has already simulated
the trace.  These tests pin:

* the invariant the key relies on: two lengths whose traces share a
  digest give equal scalars, from fresh runs with no cache involved;
* reuse: a serial ``Runner`` and a ``WorkerPool`` sweep at the second
  length simulate nothing and return the first length's scalars;
* no reuse where the key differs or the disk layer is off: another
  digest, another machine, ``run_live``, ``REPRO_NO_DISK_CACHE=1``; a
  corrupt trace-keyed entry is a miss;
* the one entry loader rejects an entry that names another pair;
* the service counts reused pairs as ``reused`` and still reports them
  ``simulated``.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

from repro.frontend.plan import clear_plan_memo
from repro.harness import experiment
from repro.harness.experiment import run_experiment
from repro.harness.runner import _SCALAR_FIELDS, Runner, WorkerPool
from repro.service.client import ServiceClient
from repro.service.protocol import pair_token
from repro.service.server import ServiceConfig, ServiceThread
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import clear_walk_memo, get_workload

FIG_SWEEP_SCHEMES = ("lru", "acic", "opt", "ghrp", "harmony")
RECORDS = 4_000
WORKLOAD = "x264"
SCHEMES = ("lru", "acic")
PAIRS = [(WORKLOAD, s) for s in SCHEMES]


def _scalars(result):
    return {k: getattr(result, k) for k in _SCALAR_FIELDS}


def _lengths(workload: str, records: int):
    """``records``, the longest length that cuts the same trace, and
    the next length, which cuts another."""
    cut = len(get_workload(workload).trace(records=records))
    assert cut > records, "the walk ends past the length asked"
    return records, cut, cut + 1


@pytest.fixture()
def caches(tmp_path, monkeypatch):
    """Disk caches on, in this test's own directories."""
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    for var in ("REPRO_RESULT_CACHE", "REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
        monkeypatch.setenv(var, str(tmp_path / var.lower()))
    return tmp_path / "repro_result_cache"


@pytest.fixture()
def simulations(monkeypatch, tmp_path):
    """Lines of a log every ``simulate`` call appends to, in this
    process and in any pool forked after the patch."""
    log = tmp_path / "simulate.log"
    log.touch()
    real = experiment.simulate

    def logged(trace, scheme, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{trace.name} {scheme.name}\n")
        return real(trace, scheme, **kwargs)

    monkeypatch.setattr(experiment, "simulate", logged)
    return lambda: log.read_text().splitlines()


@pytest.mark.parametrize("workload", ["media-streaming", "data-caching"])
def test_lengths_sharing_a_trace_give_equal_scalars(workload, caches, monkeypatch):
    """The property the trace key relies on, with no result cache
    involved: each run walks and plans its length from scratch."""
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    first, shared, _ = _lengths(workload, 20_000)
    runs = {}
    for records in (first, shared):
        clear_walk_memo()
        clear_plan_memo()
        digest = get_workload(workload).trace(records=records).digest
        runs[records] = digest, {
            scheme: _scalars(
                run_experiment(workload, scheme, records=records).run
            )
            for scheme in FIG_SWEEP_SCHEMES
        }
    assert runs[first][0] == runs[shared][0]
    assert runs[first][1] == runs[shared][1]


class TestReuse:
    def test_serial_runner_simulates_nothing(self, caches, simulations):
        first, shared, _ = _lengths(WORKLOAD, RECORDS)
        expected = Runner(records=first).sweep_pairs(PAIRS)
        assert len(simulations()) == len(PAIRS)

        runner = Runner(records=shared)
        results = runner.sweep_pairs(PAIRS)
        assert len(simulations()) == len(PAIRS), "nothing simulated again"
        assert runner.reused == set(PAIRS)
        assert {p: _scalars(r) for p, r in results.items()} == {
            p: _scalars(r) for p, r in expected.items()
        }
        # The records-keyed entries are written as for a simulation.
        probe = Runner(records=shared)
        assert all(probe.cached(*pair) is not None for pair in PAIRS)

    def test_pool_sweep_simulates_nothing(self, caches, simulations):
        first, shared, _ = _lengths(WORKLOAD, RECORDS)
        pool = WorkerPool(2)  # forked with simulate patched
        try:
            expected = Runner(records=first).sweep_pairs(PAIRS, pool=pool)
            assert len(simulations()) == len(PAIRS)
            runner = Runner(records=shared)
            results = runner.sweep_pairs(PAIRS, pool=pool)
        finally:
            pool.close()
        assert len(simulations()) == len(PAIRS), "nothing simulated again"
        assert runner.reused == set(PAIRS)
        assert {p: _scalars(r) for p, r in results.items()} == {
            p: _scalars(r) for p, r in expected.items()
        }


class TestNoReuse:
    @pytest.fixture()
    def simulated(self, caches, simulations):
        """The first length simulated; returns its lengths."""
        lengths = _lengths(WORKLOAD, RECORDS)
        Runner(records=lengths[0]).sweep_pairs(PAIRS)
        assert len(simulations()) == len(PAIRS)
        return lengths

    def test_another_trace(self, simulated, simulations):
        runner = Runner(records=simulated[2])
        runner.sweep_pairs(PAIRS)
        assert len(simulations()) == 2 * len(PAIRS)
        assert runner.reused == set()

    def test_another_machine(self, simulated, simulations):
        machine = replace(DEFAULT_MACHINE, mshr_entries=8)
        runner = Runner(records=simulated[1], machine=machine)
        runner.sweep_pairs(PAIRS)
        assert len(simulations()) == 2 * len(PAIRS)
        assert runner.reused == set()

    def test_run_live(self, simulated, simulations):
        runner = Runner(records=simulated[1])
        live = runner.run_live(*PAIRS[0])
        assert live.scheme is not None
        assert len(simulations()) == len(PAIRS) + 1
        assert runner.reused == set()

    def test_disk_cache_off(self, simulated, simulations, caches, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        written = sorted((caches / "by-trace").iterdir())
        runner = Runner(records=simulated[1])
        runner.sweep_pairs(PAIRS)
        assert len(simulations()) == 2 * len(PAIRS)
        assert runner.reused == set()
        assert sorted((caches / "by-trace").iterdir()) == written

    def test_corrupt_entry_is_a_miss(self, simulated, simulations, caches):
        entries = sorted((caches / "by-trace").iterdir())
        assert len(entries) == len(PAIRS)
        for entry in entries:
            entry.write_text("{not json")
        runner = Runner(records=simulated[1])
        results = runner.sweep_pairs(PAIRS)
        assert len(simulations()) == 2 * len(PAIRS)
        assert runner.reused == set()
        assert runner.disk_cache_rejects == len(PAIRS)
        for entry in entries:  # rewritten by the fresh simulations
            stored = json.loads(entry.read_text())
            assert stored == _scalars(results[stored["workload"], stored["scheme_name"]])


class TestEntryNamesItsPair:
    """An entry copied under another pair's name is rejected, unlinked
    and counted, and the next layer answers the pair; records- and
    trace-keyed entries go through the one loader."""

    @pytest.fixture()
    def fresh(self, caches):
        first, shared, _ = _lengths(WORKLOAD, RECORDS)
        results = Runner(records=first).sweep_pairs(PAIRS + [("gcc", "lru")])
        return first, shared, {p: _scalars(r) for p, r in results.items()}

    @pytest.mark.parametrize("source", [(WORKLOAD, "lru"), ("gcc", "lru")])
    def test_records_keyed(self, fresh, caches, source):
        """The pair is then answered by its trace-keyed entry."""
        first, _, expected = fresh
        runner = Runner(records=first)
        target = runner._disk_path(WORKLOAD, "acic")
        shutil.copyfile(runner._disk_path(*source), target)
        result = runner.run(WORKLOAD, "acic")
        assert _scalars(result) == expected[(WORKLOAD, "acic")]
        assert runner.disk_cache_rejects == 1
        assert runner.reused == {(WORKLOAD, "acic")}
        assert json.loads(target.read_text()) == expected[(WORKLOAD, "acic")]

    def test_trace_keyed(self, simulations, fresh, caches):
        _, shared, expected = fresh
        entries = {
            json.loads(p.read_text())["scheme_name"]: p
            for p in (caches / "by-trace").glob("*.fdp.*.json")
            if json.loads(p.read_text())["workload"] == WORKLOAD
        }
        shutil.copyfile(entries["lru"], entries["acic"])
        before = len(simulations())
        runner = Runner(records=shared)
        results = runner.sweep_pairs(PAIRS)
        assert runner.disk_cache_rejects == 1
        assert runner.reused == {(WORKLOAD, "lru")}
        assert len(simulations()) == before + 1
        assert {p: _scalars(r) for p, r in results.items()} == {
            p: expected[p] for p in PAIRS
        }


@pytest.mark.parametrize("jobs", [1, 2])
def test_service_reports_reused_pairs(caches, jobs):
    """A request at a length that cuts an already-simulated trace:
    every pair is ``simulated`` (admitted), and counted ``reused`` in
    ``/healthz`` and the stream's ``done`` event."""
    first, shared, _ = _lengths(WORKLOAD, RECORDS)
    direct = Runner(records=shared, use_disk_cache=False).sweep_pairs(PAIRS)
    with ServiceThread(ServiceConfig(records=first, jobs=jobs)) as svc:
        client = ServiceClient(port=svc.port)
        client.sweep([WORKLOAD], SCHEMES)
        assert client.health()["stats"]["reused"] == 0
        events = list(client.sweep_stream([WORKLOAD], SCHEMES, records=shared))
        stats = client.health()["stats"]
    results = [e for e in events if e["event"] == "result"]
    assert {e["source"] for e in results} == {"simulated"}
    assert {pair_token(e["workload"], e["scheme"]): e["scalars"] for e in results} == {
        pair_token(*p): _scalars(r) for p, r in direct.items()
    }
    assert events[-1]["event"] == "done"
    assert events[-1]["stats"]["reused"] == len(PAIRS)
    assert stats["reused"] == len(PAIRS)
    assert stats["admitted"] == 2 * len(PAIRS)
