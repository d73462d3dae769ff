"""Figure 14: parallel (2-cycle, queued) vs instant predictor updates.

The pipelined HRT->PT update path costs essentially nothing — MPKI
reduction matches the idealised instant-update design.
"""

from bench_support import W10, once

from repro.harness.tables import format_table


def test_fig14_update_latency(benchmark, runner):
    def build():
        rows = []
        for w in W10:
            rows.append(
                [
                    w,
                    f"{runner.mpki_reduction(w, 'acic'):+.2f}%",
                    f"{runner.mpki_reduction(w, 'acic-instant'):+.2f}%",
                ]
            )
        parallel = sum(runner.mpki_reduction(w, "acic") for w in W10) / 10
        instant = sum(runner.mpki_reduction(w, "acic-instant") for w in W10) / 10
        return rows, parallel, instant

    rows, parallel, instant = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["workload", "parallel update", "instant update"],
            rows,
            title="Figure 14: MPKI reduction, parallel vs instant updates",
        )
    )
    print(f"\navg: parallel={parallel:+.2f}%  instant={instant:+.2f}%")
    # The update latency must not change the picture materially.
    assert abs(parallel - instant) < max(2.0, 0.5 * abs(instant))
