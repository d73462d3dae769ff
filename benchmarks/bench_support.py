"""Names the benchmark modules share: workload lists and bench helpers.

The benches import these with ``from bench_support import ...``.  They
live here, not in ``conftest.py``, because a ``conftest`` import binds
to whichever ``conftest`` module pytest loaded last: a run that also
collects ``tests/`` would hand the benches ``tests/conftest.py``.  The
module name is unique in the repo, so the import always resolves here.
"""

from __future__ import annotations

from repro.common.stats import geomean
from repro.harness.runner import Runner

#: The ten datacenter workloads (Table III order).
W10 = (
    "media-streaming",
    "data-caching",
    "data-serving",
    "web-serving",
    "web-search",
    "tpcc",
    "wikipedia",
    "sibench",
    "finagle-http",
    "neo4j-analytics",
)

#: SPEC2017 integer-speed workloads of Section IV-H3.
SPEC5 = ("perlbench", "omnetpp", "xalancbmk", "x264", "gcc")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulations take seconds; pytest-benchmark's default calibration
    would rerun them dozens of times.  All results are cached inside the
    session runner anyway, so one round measures the real cost.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def speedups_for(runner: Runner, workloads, schemes, baseline="lru"):
    """(speedup table, per-scheme geomeans) for a scheme sweep."""
    table = {
        w: {s: runner.speedup(w, s, baseline=baseline) for s in schemes}
        for w in workloads
    }
    gmeans = {s: geomean([table[w][s] for w in workloads]) for s in schemes}
    return table, gmeans


def reductions_for(runner: Runner, workloads, schemes, baseline="lru"):
    """(MPKI-reduction table, per-scheme averages)."""
    table = {
        w: {s: runner.mpki_reduction(w, s, baseline=baseline) for s in schemes}
        for w in workloads
    }
    avgs = {
        s: sum(table[w][s] for w in workloads) / len(workloads) for s in schemes
    }
    return table, avgs
