"""Figure 3b: reuse distance of incoming minus outgoing (media streaming).

A large fraction of i-Filter victims inserted into the i-cache have a
*longer* next reuse distance than the (OPT-chosen) block they evict —
the paper measures 38.38 % wrong insertions, motivating admission
control.
"""

from bench_support import once

from repro.analysis.comparisons import FIG3B_EDGES, ifilter_insertion_deltas
from repro.harness.experiment import scaled_records
from repro.harness.schemes import SchemeContext
from repro.workloads.profiles import get_workload

PAPER_WRONG_PERCENT = 38.38


def test_fig03b_insertion_deltas(benchmark):
    def build():
        trace = get_workload("media-streaming").trace(records=scaled_records())
        ctx = SchemeContext(trace=trace)
        return ifilter_insertion_deltas(trace, ctx.oracle)

    hist = once(benchmark, build)
    labels = (
        ["< -10000"]
        + [f"[{a}, {b})" for a, b in zip(FIG3B_EDGES, FIG3B_EDGES[1:])]
        + [">= 10000"]
    )
    print("\nFigure 3b: (incoming - outgoing) reuse-distance deltas")
    for label, count in zip(labels, hist.counts):
        print(f"  {label:>18}: {100.0 * count / hist.total:6.2f}%")
    print(
        f"  wrong insertions (delta > 0): {hist.wrong_percent:.2f}% "
        f"(paper: {PAPER_WRONG_PERCENT}%)"
    )
    # The motivating observation: a substantial fraction is wrong.
    assert hist.wrong_percent > 10.0
