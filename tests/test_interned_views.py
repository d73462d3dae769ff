"""Per-record list views hold one int object per distinct value.

The cached list views of a trace (``blocks_list`` and the other
``*_list`` properties) and of its replacement pre-pass
(``ghrp_sig_list``, ``hawkeye_sig_list``, ``set_index_list``) are what
a resident sweep context keeps per record.  Their values repeat (a few
thousand blocks, a few hundred signatures), so each view must equal
``array.tolist()`` while boxing each distinct value once, for every way
a trace comes to be: cut from a walk, loaded from the store's npz or
mmap sidecar, copied, sliced, empty or one record long.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.artifacts import sidecar_path
from repro.mem.prepass import (
    PREPASS_STORE,
    ReplacementPrepass,
    build_replacement_prepass,
    cached_replacement_prepass,
)
from repro.workloads.profiles import clear_walk_memo, get_workload
from repro.workloads.trace import (
    TRACE_STORE,
    Trace,
    interned_list,
)

RECORDS = 5_000
WORKLOAD = "data-caching"

TRACE_VIEWS = {
    "blocks_list": "blocks",
    "instrs_list": "instrs",
    "branch_kind_list": "branch_kind",
    "branch_site_list": "branch_site",
}
PREPASS_VIEWS = {
    "set_index_list": "set_index",
    "ghrp_sig_list": "ghrp_sig",
    "hawkeye_sig_list": "hawkeye_sig",
}


def assert_interned(view, array) -> None:
    assert type(view) is list
    assert view == array.tolist()
    assert all(type(x) is int for x in view)
    assert len({id(x) for x in view}) == len(np.unique(array))


def check_views(trace: Trace, pre: ReplacementPrepass) -> None:
    for view, array in TRACE_VIEWS.items():
        assert_interned(getattr(trace, view), getattr(trace, array))
    for view, array in PREPASS_VIEWS.items():
        assert_interned(getattr(pre, view), getattr(pre, array))


@pytest.fixture()
def stores(tmp_path, monkeypatch):
    """Isolated trace and plan caches with the disk enabled."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    PREPASS_STORE.clear_memo()
    yield tmp_path
    PREPASS_STORE.clear_memo()


def _generated() -> Trace:
    trace = get_workload(WORKLOAD).trace(records=RECORDS)
    assert trace.walk is not None
    return trace


def test_walk_traces(stores):
    trace = _generated()
    check_views(trace, build_replacement_prepass(trace))
    # A shorter length is cut from the same walk.
    short = get_workload(WORKLOAD).trace(records=RECORDS // 3)
    assert short.walk is trace.walk
    check_views(short, build_replacement_prepass(short))


@pytest.mark.parametrize("form", ["npz", "mmap"])
def test_store_traces(stores, form):
    generated = _generated()
    cached_replacement_prepass(generated)  # saves the pre-pass too
    clear_walk_memo()
    PREPASS_STORE.clear_memo()
    (npz,) = (stores / "traces").glob("*.npz")
    (pre_npz,) = (stores / "plans").glob("*.npz")
    if form == "npz":
        trace = TRACE_STORE.read_npz(npz)
        pre = PREPASS_STORE.read_npz(pre_npz)
        assert not isinstance(trace.blocks, np.memmap)
    else:
        trace = TRACE_STORE.read_sidecar(sidecar_path(npz))
        pre = PREPASS_STORE.read_sidecar(sidecar_path(pre_npz))
        assert isinstance(trace.blocks, np.memmap)
        assert isinstance(pre.ghrp_sig, np.memmap)
    assert trace.walk is None
    assert trace.digest == generated.digest
    check_views(trace, pre)


@pytest.mark.parametrize(
    "copy",
    [
        lambda t: dataclasses.replace(t),
        lambda t: t.slice(123, RECORDS - 77),
        lambda t: t.slice(0, 0),
        lambda t: t.slice(41, 42),
    ],
    ids=["replace", "slice", "empty", "one-record"],
)
def test_copies(stores, copy):
    trace = copy(_generated())
    assert trace.walk is None
    check_views(trace, build_replacement_prepass(trace))


@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [-5, 256, 3, 256],            # CPython's small-int cache
        [-6, 257, 257, -6],           # just outside it
        [2**62, -(2**62), 2**62, 5],  # the ends of the int64 range
        [10**6 + 3, 10**6, 10**6 + 3, 10**6 + 1],
        # Spans shorter than the array: gathered from a table of the span.
        list(range(-3, 5)) * 2,
        [2**62 + 1, 2**62, 2**62 + 1],
    ],
)
def test_interned_list_edges(values):
    array = np.array(values, dtype=np.int64)
    assert_interned(interned_list(array), array)


def test_interned_list_of_unsigned_bytes():
    """The table path offsets by the minimum without leaving the dtype."""
    array = np.array([255, 253, 254, 255, 253], dtype=np.uint8)
    assert_interned(interned_list(array), array)
