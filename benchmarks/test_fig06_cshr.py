"""Figure 6: comparisons outstanding during CSHR entry lifetimes.

Justifies the 256-entry CSHR: most comparisons resolve while few enough
other comparisons are in flight (paper: ~70 % within 256 entries for
Data Caching).
"""

from bench_support import once

from repro.analysis.comparisons import FIG6_EDGES, cshr_lifetime_distribution
from repro.harness.experiment import scaled_records
from repro.workloads.profiles import get_workload


def test_fig06_cshr_lifetime(benchmark):
    def build():
        trace = get_workload("data-caching").trace(records=scaled_records())
        return cshr_lifetime_distribution(trace)

    dist = once(benchmark, build)
    labels = (
        [f"<= {FIG6_EDGES[0]}"]
        + [f"{a}-{b}" for a, b in zip(FIG6_EDGES, FIG6_EDGES[1:])]
        + ["> 400 / unresolved"]
    )
    print("\nFigure 6: concurrent comparisons at resolution (data caching)")
    for label, pct in zip(labels, dist.percentages()):
        print(f"  {label:>20}: {pct:6.2f}%")
    print(f"  resolved within 256 entries: {dist.resolved_within(256):.1f}%")
    assert dist.total > 0
    # The distribution is front-loaded: small capacities already resolve
    # a meaningful share, and 256 covers the majority of resolutions.
    assert dist.resolved_within(256) > 30.0
