"""Figure 16: ACIC's bypass policy alone, over an FDP + i-Filter baseline.

Real processors already have i-Filter-like structures; measured against
a baseline that *includes* the i-Filter (always-insert), the admission
policy by itself still provides a speedup (paper: 1.0165 geomean).
"""

from bench_support import W10, once

from repro.common.stats import geomean
from repro.harness.tables import format_table


def test_fig16_acic_over_ifilter_baseline(benchmark, runner):
    def build():
        speeds = {
            w: runner.speedup(w, "acic", baseline="ifilter-always") for w in W10
        }
        return speeds, geomean(list(speeds.values()))

    speeds, gmean = once(benchmark, build)
    rows = [[w, speeds[w]] for w in W10] + [["gmean", gmean]]
    print(
        "\n"
        + format_table(
            ["workload", "speedup"],
            rows,
            title="Figure 16: ACIC over FDP + i-Filter (always-insert) baseline",
        )
    )
    # The bypass policy itself contributes on top of the i-Filter.
    assert gmean > 0.999
