"""Figure 1a: reuse-distance distribution per datacenter application."""

from bench_support import W10, once

from repro.analysis.reuse import FIG1A_BUCKETS, reuse_histogram
from repro.harness.experiment import scaled_records
from repro.harness.tables import format_table
from repro.workloads.profiles import get_workload


def test_fig01a_reuse_distributions(benchmark):
    records = scaled_records()

    def build():
        rows = []
        for w in W10:
            trace = get_workload(w).trace(records=records)
            pct = reuse_histogram(trace.blocks, w).percentages()
            rows.append([w] + [f"{pct[b]:.2f}%" for b in FIG1A_BUCKETS])
        return rows

    rows = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["workload"] + list(FIG1A_BUCKETS),
            rows,
            title="Figure 1a: reuse-distance distribution (% of reuses)",
        )
    )
    # Spatial (distance 0) mass dominates everywhere, as in the paper.
    for row in rows:
        d0 = float(row[1].rstrip("%"))
        assert d0 > 60.0, row[0]
