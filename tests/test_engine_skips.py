"""The record loop's skip rules change no result.

``simulate`` batches repeat-block hits into one ``repeat_hits`` call and
skips candidate probes whose answer cannot have changed (see its
docstring).  A scheme seen through :class:`HiddenHook`, a forwarding
proxy without ``repeat_hits``, gets one lookup per record and every
probe of the plan's probe stream, the engine's behaviour before those
rules.  For every registered scheme on three workloads, both runs must
give the same scalars and leave the scheme in the same state, recency
order included.

The probe stream itself drops later duplicates within a candidate span,
so :class:`HiddenHook` no longer sees those; that de-duplication is
pinned exact by ``tests/test_frontend_plan.py``, which runs every
scheme against the stack-driven reference engine that probes each
candidate.  The tests at the end check what the probe stream costs:
no more ``contains`` calls per span than distinct candidates, no
per-record list views built for it, and no trace kept alive by it.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.frontend.plan import build_plan, cached_plan
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from repro.workloads.trace import Trace
from reference.state import ordered

RECORDS = 4_000
WORKLOADS = ("media-streaming", "web-search", "data-caching")

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


class HiddenHook:
    """Forwards the scheme protocol and the bracketing hooks, not ``repeat_hits``.

    Methods forward at call time, so a scheme that re-binds its
    closures stays correctly driven.
    """

    def __init__(self, scheme) -> None:
        self._scheme = scheme
        self.name = scheme.name
        self.calls = {"lookup": 0, "contains": 0}
        for hook in ("prepare_trace", "finish_trace"):
            if hasattr(scheme, hook):
                setattr(self, hook, getattr(scheme, hook))

    def lookup(self, block, t, cycle):
        self.calls["lookup"] += 1
        return self._scheme.lookup(block, t, cycle)

    def fill(self, block, t, cycle):
        self._scheme.fill(block, t, cycle)

    def prefetch_fill(self, block, t, cycle):
        self._scheme.prefetch_fill(block, t, cycle)

    def contains(self, block):
        self.calls["contains"] += 1
        return self._scheme.contains(block)


class Counted(HiddenHook):
    """:class:`HiddenHook` that also forwards ``repeat_hits``."""

    def __init__(self, scheme) -> None:
        super().__init__(scheme)
        self.repeat_hits = scheme.repeat_hits


@pytest.fixture(scope="module", params=WORKLOADS)
def grid(request):
    # Plans and pre-passes of these short traces stay in memory.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = get_workload(request.param).trace(records=RECORDS)
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        yield trace, plan, SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


def _run(grid, scheme):
    trace, plan, _ = grid
    return simulate(trace, scheme, machine=DEFAULT_MACHINE, plan=plan)


@pytest.mark.parametrize("name", sorted(available_schemes()))
def test_skips_match_per_record_calls(name, grid):
    context = grid[2]
    direct = make_scheme(name, context)
    hidden = make_scheme(name, context)
    fast = _run(grid, direct)
    slow = _run(grid, HiddenHook(hidden))
    assert {k: getattr(fast, k) for k in SCALARS} == {
        k: getattr(slow, k) for k in SCALARS
    }
    assert ordered(direct) == ordered(hidden)


@pytest.mark.parametrize(
    "name", ("lru", "36kb-l1i", "40kb-l1i", "opt", "acic", "ghrp", "harmony")
)
def test_hooked_schemes_skip_most_calls(name, grid):
    """The rules fire: most lookups batch and repeated probes go away."""
    context = grid[2]
    counted = Counted(make_scheme(name, context))
    hidden = HiddenHook(make_scheme(name, context))
    _run(grid, counted)
    _run(grid, hidden)
    records = len(grid[0])
    assert hidden.calls["lookup"] == records
    assert counted.calls["lookup"] < records // 2
    assert counted.calls["contains"] < hidden.calls["contains"]


class PerRecord(HiddenHook):
    """:class:`HiddenHook` that counts ``contains`` calls per record.

    Without ``repeat_hits`` every record makes a real ``lookup`` before
    its probes, so the latest lookup's ``t`` names the probing record.
    """

    def __init__(self, scheme) -> None:
        super().__init__(scheme)
        self.t = -1
        self.probes = Counter()

    def lookup(self, block, t, cycle):
        self.t = t
        return super().lookup(block, t, cycle)

    def contains(self, block):
        self.probes[self.t] += 1
        return super().contains(block)


def _fresh(records=RECORDS):
    """A trace no memo holds, and its fdp plan, built outside the caches."""
    source = get_workload("media-streaming").trace(records=records)
    trace = Trace(
        name="media-streaming-copy",
        blocks=source.blocks.copy(),
        instrs=source.instrs.copy(),
        branch_kind=source.branch_kind.copy(),
        branch_site=source.branch_site.copy(),
        seed=source.seed,
    )
    return trace, build_plan(trace, DEFAULT_MACHINE, "fdp")


@pytest.mark.parametrize("name", ("lru", "acic", "harmony"))
def test_multi_candidate_spans_probe_each_block_once(name, grid):
    trace, plan, context = grid
    counted = PerRecord(make_scheme(name, context))
    _run(grid, counted)
    blocks = trace.blocks_list
    spans = [
        (i, blocks[lo:hi])
        for i, (lo, hi) in enumerate(zip(plan.cand_lo_list, plan.cand_hi_list))
        if hi - lo > 1
    ]
    assert any(len(set(span)) < len(span) for _, span in spans)
    for i, span in spans:
        assert counted.probes[i] <= len(set(span)), i


def test_fdp_run_builds_no_span_or_instruction_lists():
    trace, plan = _fresh()
    context = SchemeContext(trace=trace, machine=DEFAULT_MACHINE)
    simulate(trace, make_scheme("lru", context), machine=DEFAULT_MACHINE, plan=plan)
    assert "cand_lo_list" not in vars(plan)
    assert "cand_hi_list" not in vars(plan)
    assert "instrs_list" not in vars(trace)


def test_stream_memo_holds_no_trace():
    trace, plan = _fresh()
    context = SchemeContext(trace=trace, machine=DEFAULT_MACHINE)
    first = simulate(
        trace, make_scheme("lru", context), machine=DEFAULT_MACHINE, plan=plan
    )
    stream = plan.record_stream(trace, DEFAULT_MACHINE.backend_ipc)
    alive = weakref.ref(trace)
    del trace, context, first
    gc.collect()
    assert alive() is None
    # The plan and its memoized stream outlive the trace.
    assert plan._stream[1] is stream
