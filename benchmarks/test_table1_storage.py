"""Table I: storage overhead of ACIC for a 32KB, 8-way i-cache."""

from bench_support import once

from repro.analysis.storage import acic_storage_bits, acic_storage_kb
from repro.harness.tables import format_table

PAPER_TOTAL_KB = 2.67


def test_table1_acic_storage(benchmark):
    def build():
        bits = acic_storage_bits()
        rows = [
            [name, f"{b} bits", f"{b / 8 / 1024:.4f} KB"]
            for name, b in bits.items()
        ]
        rows.append(["Total", "", f"{acic_storage_kb():.2f} KB"])
        return format_table(
            ["component", "bits", "KB"],
            rows,
            title="Table I: ACIC storage overhead (paper total: 2.67 KB)",
        )

    table = once(benchmark, build)
    print("\n" + table)
    assert abs(acic_storage_kb() - PAPER_TOTAL_KB) < 0.01
