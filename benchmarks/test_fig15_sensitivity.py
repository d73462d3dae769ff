"""Figure 15: sensitivity of ACIC to its key design parameters.

Varies HRT entries, history width, PT counter width, i-Filter slots and
CSHR tag width around the default configuration.  Paper findings: a
larger i-Filter helps most; a smaller i-Filter, tiny PT counters and
short CSHR tags hurt most.

To keep the sweep tractable the geomean is computed over the four
"ACIC-friendly" applications the paper highlights.
"""

from bench_support import once, speedups_for

from repro.common.stats import geomean
from repro.harness.tables import format_table

VARIANTS = (
    "acic",
    "acic-hrt2k",
    "acic-hrt512",
    "acic-hist8",
    "acic-hist10",
    "acic-ctr2",
    "acic-ctr8",
    "acic-if8",
    "acic-if32",
    "acic-tag7",
    "acic-tag27",
)

WORKLOADS = ("media-streaming", "data-caching", "web-search", "neo4j-analytics")


def test_fig15_sensitivity(benchmark, runner):
    def build():
        _, gmeans = speedups_for(runner, WORKLOADS, VARIANTS)
        return gmeans

    gmeans = once(benchmark, build)
    rows = [[name, gmeans[name]] for name in VARIANTS]
    print(
        "\n"
        + format_table(
            ["configuration", "gmean speedup"],
            rows,
            title="Figure 15: ACIC sensitivity (gmean over 4 workloads)",
        )
    )
    default = gmeans["acic"]
    # A larger i-Filter should not hurt; a 2-bit PT counter and tiny
    # CSHR tags should not beat the default by much.
    assert gmeans["acic-if32"] >= default - 0.002
    assert gmeans["acic-ctr2"] <= default + 0.003
    assert gmeans["acic-tag7"] <= default + 0.003
