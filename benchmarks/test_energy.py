"""Section III-D: chip-energy saving of ACIC over the baseline.

Despite the extra 2.67 KB of structures, the speedup (less leakage
time) and miss reduction (less L2 traffic) produce a net saving (paper:
0.63 % average chip energy).
"""

from bench_support import W10, once

from repro.analysis.energy import acic_energy_saving_percent
from repro.harness.tables import format_table


def test_energy_saving(benchmark, runner):
    def build():
        savings = {}
        for w in W10:
            acic = runner.run(w, "acic")
            base = runner.run(w, "lru")
            savings[w] = acic_energy_saving_percent(acic, base)
        return savings

    savings = once(benchmark, build)
    rows = [[w, f"{savings[w]:+.3f}%"] for w in W10]
    avg = sum(savings.values()) / len(savings)
    rows.append(["avg", f"{avg:+.3f}%"])
    print(
        "\n"
        + format_table(
            ["workload", "chip-energy saving"],
            rows,
            title="Section III-D: ACIC chip-energy saving (paper avg: 0.63%)",
        )
    )
    # Near-neutral or better: the saving scales with the achieved
    # speedup, which is magnitude-limited on short synthetic traces
    # (EXPERIMENTS.md); the extra structures must stay in the noise.
    assert avg > -1.0
