"""Table IV: storage overhead of every comparison scheme."""

from bench_support import once

from repro.analysis.storage import PAPER_STORAGE_KB, scheme_storage_kb
from repro.harness.tables import format_table


def test_table4_scheme_storage(benchmark):
    def build():
        measured = scheme_storage_kb()
        rows = [
            [name, PAPER_STORAGE_KB.get(name, float("nan")), f"{kb:.3f}"]
            for name, kb in measured.items()
        ]
        return measured, rows

    measured, rows = once(benchmark, build)
    print(
        "\n"
        + format_table(
            ["scheme", "paper KB", "measured KB"],
            rows,
            title="Table IV: extra storage per scheme",
        )
    )
    # The paper's headline comparison: ACIC needs ~2/3 of GHRP's storage.
    assert measured["ACIC"] < measured["GHRP"]
    assert measured["OPT"] == 0.0
