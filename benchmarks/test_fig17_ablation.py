"""Figure 17: every ACIC structure is necessary.

Removing the i-Filter, keeping only the i-Filter (always-insert), or
replacing the two-level predictor with a global-history or bimodal one
all lose performance relative to the full design.
"""

from bench_support import W10, once, speedups_for

from repro.harness.tables import format_table

DESIGNS = ("acic", "acic-nofilter", "ifilter-always", "acic-global", "acic-bimodal")
LABELS = {
    "acic": "default",
    "acic-nofilter": "no i-Filter",
    "ifilter-always": "i-Filter only",
    "acic-global": "global-history predictor",
    "acic-bimodal": "bimodal predictor",
}


def test_fig17_simpler_designs(benchmark, runner):
    def build():
        _, gmeans = speedups_for(runner, W10, DESIGNS)
        return gmeans

    gmeans = once(benchmark, build)
    rows = [[LABELS[d], gmeans[d]] for d in DESIGNS]
    print(
        "\n"
        + format_table(
            ["design", "gmean speedup"],
            rows,
            title="Figure 17: ACIC vs simpler designs (over FDP baseline)",
        )
    )
    # The full design leads every ablation (allowing simulation noise).
    for design in DESIGNS[1:]:
        assert gmeans["acic"] >= gmeans[design] - 0.0015, design
