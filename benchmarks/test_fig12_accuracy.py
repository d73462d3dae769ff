"""Figures 12a/12b: where ACIC's prediction accuracy actually matters.

12a: ACIC's raw bypass accuracy is modest overall but rises sharply for
decisions involving short reuse distances — the ones that matter.
12b: a strawman that is randomly correct 60 % of the time captures far
less of the MPKI reduction than ACIC.
"""

from bench_support import W10, once

from repro.harness.tables import format_table

#: Figure 12a's reuse-distance caps, in trace records (the paper buckets
#: by block distances; records scale by the ~4.5 records/block-visit).
RANGES = (None, 8192, 4096, 2048, 1024, 512)
RANGE_LABELS = ("[0,Inf)", "[0,8192)", "[0,4096)", "[0,2048)", "[0,1024)", "[0,512)")

AUDIT_WORKLOADS = ("media-streaming", "data-caching", "web-search", "neo4j-analytics")


def test_fig12a_accuracy_by_range(benchmark, runner):
    def build():
        audits = [
            runner.run_live(w, "acic-audit").scheme.audit for w in AUDIT_WORKLOADS
        ]
        rows = []
        for cap, label in zip(RANGES, RANGE_LABELS):
            accs = [a.accuracy(cap) for a in audits if len(a)]
            rows.append([label, f"{100 * sum(accs) / len(accs):.1f}%"])
        return rows

    rows = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["reuse-distance range", "avg ACIC bypass accuracy"],
            rows,
            title="Figure 12a: accuracy vs reuse-distance range",
        )
    )
    overall = float(rows[0][1].rstrip("%"))
    tightest = float(rows[-1][1].rstrip("%"))
    # Accuracy rises as the range tightens to where decisions matter.
    assert tightest >= overall


def test_fig12b_random_bypass_vs_acic(benchmark, runner):
    def build():
        rows = []
        for w in W10:
            rows.append(
                [
                    w,
                    f"{runner.mpki_reduction(w, 'random-bypass'):+.2f}%",
                    f"{runner.mpki_reduction(w, 'acic'):+.2f}%",
                ]
            )
        rand_avg = sum(runner.mpki_reduction(w, "random-bypass") for w in W10) / 10
        acic_avg = sum(runner.mpki_reduction(w, "acic") for w in W10) / 10
        return rows, rand_avg, acic_avg

    rows, rand_avg, acic_avg = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["workload", "random 60%", "ACIC"],
            rows,
            title="Figure 12b: MPKI reduction, random-60% bypass vs ACIC",
        )
    )
    print(f"\navg: random={rand_avg:+.2f}%  acic={acic_avg:+.2f}%")
    # ACIC's accuracy-where-it-matters beats uniform 60% accuracy.
    assert acic_avg > rand_avg
