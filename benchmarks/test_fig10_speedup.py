"""Figure 10: speedup of every scheme over the LRU + FDP baseline.

The headline comparison: ACIC vs replacement policies (SRRIP, SHiP,
Harmony, GHRP), bypass policies (DSB, OBM), victim caches (VVC, VC3K),
a larger i-cache, and the OPT oracles.
"""

from bench_support import W10, once, speedups_for

from repro.harness.tables import speedup_table

SCHEMES = (
    "srrip",
    "ship",
    "harmony",
    "ghrp",
    "dsb",
    "obm",
    "vvc",
    "vc3k",
    "acic",
    "36kb-l1i",
    "opt",
    "opt-bypass",
)


def test_fig10_speedups(benchmark, runner):
    def build():
        return speedups_for(runner, W10, SCHEMES)

    table, gmeans = once(benchmark, build)
    print(
        "\n"
        + speedup_table(
            table,
            W10,
            SCHEMES,
            title="Figure 10: speedup over LRU + FDP baseline",
            geomeans=gmeans,
        )
    )
    # Paper orderings that must hold in shape:
    assert gmeans["opt"] >= gmeans["acic"]          # oracle bounds ACIC
    assert gmeans["acic"] > gmeans["vvc"]           # VVC hurts the i-stream
    assert gmeans["acic"] >= gmeans["ghrp"]         # ACIC beats best prior
    assert gmeans["acic"] >= gmeans["dsb"]
    assert gmeans["acic"] >= gmeans["obm"]
    assert gmeans["opt"] > 1.0
    assert gmeans["acic"] > 1.0
