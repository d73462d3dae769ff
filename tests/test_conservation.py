"""Conservation laws every registered scheme obeys after a run.

Counters that partition one stream of events cannot cross: hits never
outnumber lookups, late prefetches are a subset of demand misses, an
admission is a subset of the decisions, and every CSHR entry inserted
is resolved, evicted unresolved or still resident.  These hold for any
trace, so they are checked on two W10 workloads at small size for
every scheme the registry builds, whatever its result numbers are.
"""

from __future__ import annotations

import pytest

from repro.frontend.plan import cached_plan
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload

RECORDS = 4_000

#: Two of the ten datacenter workloads (Table III).
WORKLOADS = ("media-streaming", "data-caching")


@pytest.fixture(scope="module", params=WORKLOADS)
def grid(request):
    # Plans and pre-passes of these short traces stay in memory.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = get_workload(request.param).trace(records=RECORDS)
        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        yield trace, plan, SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


@pytest.mark.parametrize("name", sorted(available_schemes()))
def test_counters_conserve(name, grid):
    trace, plan, context = grid
    run = simulate(
        trace, make_scheme(name, context), machine=DEFAULT_MACHINE, plan=plan
    )
    scheme = run.scheme

    assert 0 <= run.late_prefetch_misses <= run.demand_misses <= run.accesses
    assert run.accesses == len(trace) - plan.warmup_end

    icache = scheme.icache.stats
    assert 0 <= icache.demand_hits <= icache.demand_accesses

    ifilter = getattr(scheme, "ifilter", None)
    if ifilter is not None:
        assert 0 <= ifilter.stats.hits <= ifilter.stats.lookups

    stats = getattr(scheme, "stats", scheme)
    if hasattr(stats, "victims_considered"):
        assert 0 <= stats.victims_admitted <= stats.victims_considered

    cshr = getattr(scheme, "cshr", None)
    if cshr is not None:
        # ACIC: each considered victim opens exactly one comparison, and
        # each comparison is resolved, evicted unresolved or pending.
        counts = cshr.stats
        pending = sum(len(tags) for tags in cshr._victim_tags)
        assert counts.resolutions + counts.unresolved_evictions <= counts.inserts
        assert (
            counts.resolutions + counts.unresolved_evictions + pending
            == counts.inserts
        )
        assert counts.inserts == stats.victims_considered
        if ifilter is not None:
            # Every i-Filter victim reaches one admission decision.
            assert (
                stats.victims_considered + stats.free_way_fills
                == ifilter.stats.victims
            )
