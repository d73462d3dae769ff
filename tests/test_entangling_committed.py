"""Entangling runs reproduce the committed full-length results.

The committed ``.cache/results/tpcc.*.entangling.r160000.*`` entries
were written by the stack-driven record loop.  The engine now runs the
entangling prefetcher live on the ``none`` frontend plan, batching
repeat-block hits; re-simulated through ``run_experiment`` with every
disk cache off, each of the five pairs must match its committed JSON
scalar for scalar.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.schemes import SchemeContext
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload

RESULTS = Path(__file__).resolve().parents[1] / ".cache" / "results"
RECORDS = 160_000
COMMITTED = sorted(RESULTS.glob(f"tpcc.*.entangling.r{RECORDS}.*.json"))


@pytest.fixture(scope="module")
def context():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = get_workload("tpcc").trace(records=RECORDS)
        yield SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


def test_all_five_pairs_are_committed():
    assert len(COMMITTED) == 5


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name.split(".")[1])
def test_resimulation_matches_committed_json(path, context, monkeypatch):
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    want = json.loads(path.read_text())
    run = run_experiment(
        "tpcc",
        want["scheme_name"],
        prefetcher="entangling",
        records=RECORDS,
        context=context,
        shard_window=0,
    ).run
    assert run.prefetcher_name == "entangling"
    assert {k: getattr(run, k) for k in want} == want
