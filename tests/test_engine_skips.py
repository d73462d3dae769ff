"""The record loop's skip rules change no result.

``simulate`` batches repeat-block hits into one ``repeat_hits`` call and
skips candidate probes whose answer cannot have changed (see its
docstring).  A scheme seen through :class:`HiddenHook`, a forwarding
proxy without ``repeat_hits``, gets one lookup and every probe per
record, the engine's behaviour before those rules.  For every
registered scheme on three workloads, both runs must give the same
scalars and leave the scheme in the same state, recency order included.
"""

from __future__ import annotations

import pytest

from repro.frontend.plan import cached_plan
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from reference.batching import ordered

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
    assert ordered(direct.save_state()) == ordered(hidden.save_state())


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
