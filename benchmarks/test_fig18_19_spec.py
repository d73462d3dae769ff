"""Figures 18/19: SPEC2017 — little headroom, ACIC does no harm.

SPEC integer codes have small, loop-dominated footprints: the baseline
already hits in L1i, so every scheme (including ACIC) moves little.
"""

from bench_support import SPEC5, once, reductions_for, speedups_for

from repro.harness.tables import reduction_table, speedup_table

SCHEMES = ("ghrp", "36kb-l1i", "acic", "opt")


def test_fig18_spec_speedups(benchmark, runner):
    def build():
        return speedups_for(runner, SPEC5, SCHEMES)

    table, gmeans = once(benchmark, build)
    print(
        "\n"
        + speedup_table(
            table,
            SPEC5,
            SCHEMES,
            title="Figure 18: SPEC2017 speedup over FDP baseline",
            geomeans=gmeans,
        )
    )
    # Little headroom: nothing moves far from 1.0, and ACIC is benign.
    assert 0.99 < gmeans["acic"] < 1.05
    assert gmeans["opt"] >= gmeans["acic"] - 0.001


def test_fig19_spec_mpki(benchmark, runner):
    def build():
        return reductions_for(runner, SPEC5, SCHEMES)

    table, avgs = once(benchmark, build)
    print(
        "\n"
        + reduction_table(
            table,
            SPEC5,
            SCHEMES,
            title="Figure 19: SPEC2017 L1i MPKI reduction over FDP baseline",
            averages=avgs,
        )
    )
    assert avgs["opt"] >= avgs["acic"] - 1.0
