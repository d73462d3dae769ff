"""Figures 20/21: with an entangling-prefetcher baseline.

The entangling prefetcher raises baseline hit rates, shrinking every
scheme's headroom — but ACIC still leads GHRP and the 36 KB i-cache
(paper: 1.0102 geomean speedup, 6.71 % MPKI reduction).
"""

from bench_support import W10, once, reductions_for, speedups_for

from repro.harness.tables import reduction_table, speedup_table

SCHEMES = ("ghrp", "36kb-l1i", "acic", "opt")


def test_fig20_entangling_speedups(benchmark, runner_entangling):
    def build():
        return speedups_for(runner_entangling, W10, SCHEMES)

    table, gmeans = once(benchmark, build)
    print(
        "\n"
        + speedup_table(
            table,
            W10,
            SCHEMES,
            title="Figure 20: speedup over entangling-prefetcher baseline",
            geomeans=gmeans,
        )
    )
    assert gmeans["opt"] >= gmeans["acic"] - 0.001
    assert gmeans["acic"] >= gmeans["ghrp"] - 0.002


def test_fig21_entangling_mpki(benchmark, runner_entangling):
    def build():
        return reductions_for(runner_entangling, W10, SCHEMES)

    table, avgs = once(benchmark, build)
    print(
        "\n"
        + reduction_table(
            table,
            W10,
            SCHEMES,
            title="Figure 21: MPKI reduction over entangling baseline",
            averages=avgs,
        )
    )
    assert avgs["acic"] > 0
    assert avgs["opt"] >= avgs["acic"]
