"""Figure 3a: spatio-temporal separation alone is not enough.

Always-inserting i-Filter victims recovers only a sliver of what OPT
offers; access-count comparison does slightly better; both fall far
short of OPT replacement (paper: 1.0057 / 1.0102 / 1.0398 geomean).
"""

from bench_support import W10, once, speedups_for

from repro.harness.tables import speedup_table

SCHEMES = ("ifilter-always", "access-count", "opt")


def test_fig03a_simple_separation_falls_short(benchmark, runner):
    def build():
        return speedups_for(runner, W10, SCHEMES)

    table, gmeans = once(benchmark, build)
    print(
        "\n"
        + speedup_table(
            table,
            W10,
            SCHEMES,
            title="Figure 3a: i-Filter separation vs OPT (speedup over LRU+FDP)",
            geomeans=gmeans,
        )
    )
    # OPT dominates both simple designs by a wide margin.
    assert gmeans["opt"] > gmeans["ifilter-always"]
    assert gmeans["opt"] > gmeans["access-count"]
    assert gmeans["opt"] > 1.0
