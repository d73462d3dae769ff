"""The traced benchmark run wraps layer functions that still exist.

``perfbench/run.py --trace 1`` wraps the public layer functions named by
``perfbench/sweeps.py``'s ``layer_targets()`` in spans, by attribute
name.  A layer that stops calling (or drops) one of those names breaks
the traced run or silently reads zero for its layer, and no other test
runs it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.frontend.plan import cached_plan
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import common
    import sweeps

    return common, sweeps


def test_every_layer_target_resolves(perfbench):
    _common, sweeps = perfbench
    for owner, attr, _name, *_count in sweeps.layer_targets():
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_generation_counts_its_records(perfbench, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    common, sweeps = perfbench
    tracer = common.Tracer()
    # A name no trace or plan cache holds.
    profile = replace(get_workload("x264"), name="perfbench-targets")
    with tracer.patch(sweeps.layer_targets()):
        first = profile.trace(records=3000)
        cached_plan(first, DEFAULT_MACHINE, "fdp")
        # Cut from the resident walk: no generation, no plan build.
        cached_plan(profile.trace(records=2000), DEFAULT_MACHINE, "fdp")
    assert tracer.counts == {"workloads.generate": len(first)}
    layers = sweeps.layer_metrics(tracer, 10.0)
    assert layers["workloads.records"] == len(first)
    assert layers["workloads.trace_s"] > 0
    assert layers["frontend.plan_s"] > 0
    names = [span[0] for span in tracer.spans]
    assert names.count("frontend.plan") == 1
