"""Figure 13: percentage of i-Filter victims admitted into the i-cache.

Admission varies widely across applications (paper: 30-99 %), showing
the predictor adapts per workload rather than applying a static rule.
"""

from bench_support import W10, once

from repro.harness.tables import format_table


def test_fig13_admission_rates(benchmark, runner):
    def build():
        rows = []
        for w in W10:
            scheme = runner.run_live(w, "acic").scheme
            rows.append([w, f"{100 * scheme.stats.admission_rate:.1f}%"])
        return rows

    rows = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["workload", "victims admitted"],
            rows,
            title="Figure 13: i-Filter victims inserted into i-cache",
        )
    )
    rates = [float(r[1].rstrip("%")) for r in rows]
    # Discretionary filtering: neither admit-all nor drop-all overall,
    # and meaningful variation across applications.
    assert min(rates) < 90.0
    assert max(rates) - min(rates) > 10.0
