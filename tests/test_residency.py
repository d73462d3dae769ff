"""What a sweep worker keeps of the workloads it has run.

Artifacts derived from a trace belong to the trace that uses them: a
worker's frontend plans (with their record streams) and replacement
pre-passes (with their list views) live as long as a resident context's
trace, or a walk its walk memo keeps, and no longer.  Within one
residency each is still derived once, however many schemes run on it.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from repro.frontend import plan as plan_mod
from repro.frontend.plan import FrontendPlan
from repro.harness.runner import (
    _WORKER_CONTEXT_CAP,
    _WORKER_CONTEXTS,
    _sweep_worker,
    _warm_worker,
    _worker_init,
)
from repro.harness.throughput import measure_scheme
from repro.mem import prepass as prepass_mod
from repro.mem.prepass import ReplacementPrepass
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import (
    DATACENTER_WORKLOADS,
    clear_walk_memo,
    get_workload,
)

RECORDS = 4000
WORKLOADS = tuple(DATACENTER_WORKLOADS)[:6]
CONFIG = ("fdp", RECORDS, DEFAULT_MACHINE)
#: The schemes `perfbench`'s fig-sweep runs per workload.
FIG_SWEEP_SCHEMES = ("lru", "acic", "opt", "ghrp", "harmony")


@pytest.fixture()
def worker(tmp_path, monkeypatch):
    """This process as a fresh sweep worker over its own disk caches."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    plan_mod.clear_plan_memo()
    prepass_mod.clear_prepass_memo()
    _worker_init()
    yield
    _worker_init()
    plan_mod.clear_plan_memo()
    prepass_mod.clear_prepass_memo()


def _traces_from_the_store() -> None:
    """Save every workload's trace, then drop the walks: later traces
    load from the trace cache, as in a worker that warmed none of them."""
    for workload in WORKLOADS:
        get_workload(workload).trace(records=RECORDS)
    clear_walk_memo()


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("generated", [True, False], ids=["generated", "loaded"])
def test_worker_keeps_only_its_contexts_and_walks(worker, generated):
    if not generated:
        _traces_from_the_store()
    kinds = (FrontendPlan, ReplacementPrepass)
    earlier = [o for o in gc.get_objects() if isinstance(o, kinds)]
    seen = {id(o) for o in earlier}

    def live(cls) -> int:
        gc.collect()
        return sum(
            1 for o in gc.get_objects() if isinstance(o, cls) and id(o) not in seen
        )

    for workload in WORKLOADS:
        _warm_worker(CONFIG, workload, True)
        for scheme in ("lru", "ghrp", "harmony"):
            _sweep_worker(CONFIG, (workload, scheme))
        walk_plans = sum(len(plans) for plans in plan_mod._walk_plans.values())
        assert live(FrontendPlan) <= _WORKER_CONTEXT_CAP + walk_plans, workload
        assert live(ReplacementPrepass) <= _WORKER_CONTEXT_CAP, workload
    if not generated:
        assert walk_plans == 0


@pytest.mark.parametrize("warmed", [True, False], ids=["warmed", "unwarmed"])
def test_one_context_derives_each_artifact_once(worker, monkeypatch, warmed):
    """All fig-sweep schemes on one resident context: one record stream,
    one pre-pass lookup past the trace and one list conversion."""
    if not warmed:
        _traces_from_the_store()
    calls: Counter = Counter()
    monkeypatch.setattr(
        plan_mod, "_derive_stream", _counted(calls, "stream", plan_mod._derive_stream)
    )
    store = prepass_mod.PREPASS_STORE
    monkeypatch.setattr(store, "get", _counted(calls, "prepass", store.get))
    conversion = cached_property(
        _counted(calls, "set_index_list", ReplacementPrepass.set_index_list.func)
    )
    conversion.__set_name__(ReplacementPrepass, "set_index_list")
    monkeypatch.setattr(ReplacementPrepass, "set_index_list", conversion)

    workload = WORKLOADS[0]
    if warmed:
        _warm_worker(CONFIG, workload, True)
    for scheme in FIG_SWEEP_SCHEMES:
        _sweep_worker(CONFIG, (workload, scheme))
    assert calls == {"stream": 1, "prepass": 1, "set_index_list": 1}


def test_timed_repeats_look_the_prepass_up_once(worker, monkeypatch):
    gets = Counter()
    store = prepass_mod.PREPASS_STORE
    monkeypatch.setattr(store, "get", _counted(gets, "prepass", store.get))
    trace = get_workload(WORKLOADS[0]).trace(records=RECORDS)
    measure_scheme(trace, "ghrp", repeats=3)
    assert gets["prepass"] <= 1


def _view_bytes(view: list) -> int:
    """A list view's size: its slots plus each int object it holds."""
    distinct = {id(x): x for x in view}
    return sys.getsizeof(view) + sum(map(sys.getsizeof, distinct.values()))


@pytest.mark.parametrize("generated", [True, False], ids=["generated", "loaded"])
def test_contexts_pin_only_interned_views(worker, generated):
    """Every fig-sweep scheme on every workload: a resident context's
    trace carries no branch-kind or branch-site list (a cut plan's
    context included), and its list views hold each distinct value
    once."""
    if not generated:
        _traces_from_the_store()
    for workload in WORKLOADS:
        _warm_worker(CONFIG, workload, True)
        for scheme in FIG_SWEEP_SCHEMES:
            _sweep_worker(CONFIG, (workload, scheme))
    # A shorter length of the last workload: in a worker that generated
    # it, a plan cut from the walk's.
    short = ("fdp", RECORDS // 2, DEFAULT_MACHINE)
    _sweep_worker(short, (WORKLOADS[-1], "lru"))

    assert len(_WORKER_CONTEXTS) == _WORKER_CONTEXT_CAP
    for key, ctx in _WORKER_CONTEXTS.items():
        trace = ctx.trace
        pinned = vars(trace)
        assert "branch_kind_list" not in pinned, key
        assert "branch_site_list" not in pinned, key
        views = [(trace.blocks_list, trace.blocks)]
        pre = prepass_mod.cached_replacement_prepass(trace)
        views += [
            (getattr(pre, name), getattr(pre, name[: -len("_list")]))
            for name in ("set_index_list", "ghrp_sig_list", "hawkeye_sig_list")
            if name in vars(pre)
        ]
        # 8 B per record plus one int object per distinct value.
        bound = sum(
            sys.getsizeof([]) + 8 * len(array) + 32 * len(np.unique(array))
            for _, array in views
        )
        assert sum(_view_bytes(view) for view, _ in views) <= bound, key
