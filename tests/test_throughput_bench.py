"""The throughput gauge behind ``scripts/bench_throughput.py``.

The bench is load-bearing CI machinery (the ``--check`` drift gate
re-simulates the committed grid), so its measurement, snapshot and
comparison layers get their own tests on a tiny grid: samples carry
positive throughput plus the scalar oracle, reports round-trip through
JSON, comparisons refuse mismatched grids, and ``verify_report``
flags scalar drift without ever rewriting the snapshot.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.throughput import (
    SCALAR_FIELDS,
    compare_reports,
    load_report,
    measure_grid,
    measure_scheme,
    parse_scheme_spec,
    verify_report,
    write_report,
)
from repro.workloads.profiles import get_workload

RECORDS = 2_000
WORKLOAD = "x264"


def test_parse_scheme_spec():
    assert parse_scheme_spec("lru", "fdp") == ("lru", "fdp")
    assert parse_scheme_spec("lru+entangling", "fdp") == ("lru", "entangling")


def test_measure_scheme_sample():
    trace = get_workload(WORKLOAD).trace(records=RECORDS)
    sample = measure_scheme(trace, "lru", repeats=1)
    assert sample.scheme == "lru"
    assert sample.records == len(trace)
    assert sample.seconds > 0
    assert sample.records_per_sec > 0
    assert sample.calibration_ns > 0
    assert sample.records_per_mcal == pytest.approx(
        sample.records_per_sec * sample.calibration_ns / 1e3
    )
    assert set(sample.scalars) == set(SCALAR_FIELDS)


def test_measure_scheme_rejects_bad_repeats():
    trace = get_workload(WORKLOAD).trace(records=RECORDS)
    with pytest.raises(ValueError):
        measure_scheme(trace, "lru", repeats=0)


def test_repeats_never_change_scalars():
    """Every repeat rebuilds the scheme; state must not leak between."""
    trace = get_workload(WORKLOAD).trace(records=RECORDS)
    once = measure_scheme(trace, "acic", repeats=1)
    thrice = measure_scheme(trace, "acic", repeats=3)
    assert once.scalars == thrice.scalars


class TestGridAndSnapshot:
    @pytest.fixture(scope="class")
    def report(self):
        return measure_grid(
            workload=WORKLOAD,
            schemes=("lru", "lru+entangling"),
            records=RECORDS,
            repeats=1,
        )

    def test_grid_shape(self, report):
        assert set(report["schemes"]) == {"lru", "lru+entangling"}
        assert report["workload"] == WORKLOAD
        assert report["records"] == RECORDS
        assert report["plan_seconds"] > 0
        for entry in report["schemes"].values():
            assert entry["records_per_sec"] > 0
            assert entry["calibration_ns"] > 0
            assert entry["records_per_mcal"] > 0
            assert set(entry["scalars"]) == set(SCALAR_FIELDS)

    def test_snapshot_roundtrip(self, report, tmp_path):
        path = tmp_path / "bench.json"
        assert write_report(report, path) == path
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))

    def test_load_report_missing_and_corrupt(self, tmp_path):
        assert load_report(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_report(bad) is None

    def test_compare_reports_same_grid(self, report):
        out = compare_reports(report, report)
        assert set(out) == set(report["schemes"])
        for entry in out.values():
            assert entry["speedup"] == 1.0
            assert entry["scalars_identical"] is True

    def test_compare_reports_uses_calibrated_rate(self, report):
        """A host twice as slow halves both rates: no speedup reported."""
        slow = json.loads(json.dumps(report))
        for entry in slow["schemes"].values():
            entry["records_per_sec"] /= 2
            entry["calibration_ns"] *= 2
        for entry in compare_reports(report, slow).values():
            assert entry["speedup"] == 1.0
        faster = json.loads(json.dumps(report))
        for entry in faster["schemes"].values():
            entry["records_per_mcal"] *= 1.5
        for entry in compare_reports(report, faster).values():
            assert entry["speedup"] == 1.5

    def test_compare_reports_falls_back_to_raw_rate(self, report):
        legacy = json.loads(json.dumps(report))
        for entry in legacy["schemes"].values():
            del entry["records_per_mcal"]
            entry["records_per_sec"] /= 2
        for entry in compare_reports(legacy, report).values():
            assert entry["speedup"] == 2.0

    def test_compare_reports_rejects_mismatched_grid(self, report):
        other = dict(report, records=report["records"] * 2)
        assert compare_reports(report, other) == {}

    def test_verify_report_clean(self, report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(report, path)
        assert verify_report(path) == []

    def test_verify_report_flags_drift(self, report, tmp_path):
        tampered = json.loads(json.dumps(report))
        tampered["schemes"]["lru"]["scalars"]["cycles"] += 1
        path = tmp_path / "bench.json"
        write_report(tampered, path)
        problems = verify_report(path)
        assert problems and "scalar drift" in problems[0]
        assert "lru" in problems[0]

    def test_verify_report_missing_snapshot(self, tmp_path):
        (problem,) = verify_report(tmp_path / "absent.json")
        assert "no readable snapshot" in problem
