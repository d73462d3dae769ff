"""Throughput regression harness: the engine's perf trajectory across PRs.

Not a paper artifact.  Measures single-run simulation throughput on the
fixed grid from :mod:`repro.harness.throughput`, refreshes the
``BENCH_throughput.json`` snapshot at the repo root, and checks the
properties the fast-path optimisations must preserve: determinism
(bit-identical scalars run-to-run) and serial/parallel sweep equality.
"""

from __future__ import annotations

import os

import pytest

from bench_support import once

from repro.harness.runner import Runner
from repro.harness.throughput import (
    DEFAULT_RECORDS,
    DEFAULT_SCHEMES,
    DEFAULT_WORKLOAD,
    compare_reports,
    load_report,
    measure_grid,
    measure_scheme,
    write_report,
)
from repro.workloads.profiles import get_workload

SWEEP_WORKLOADS = ("media-streaming", "data-caching", "web-serving")
SWEEP_SCHEMES = ("lru", "acic", "srrip", "opt")  # 12 cold pairs


def _scalars_of(result):
    return (
        result.instructions,
        result.cycles,
        result.demand_misses,
        result.prefetches_issued,
        result.mispredicted_transitions,
    )


def test_throughput_snapshot(benchmark):
    """Measure the fixed grid and refresh BENCH_throughput.json.

    The committed snapshot is a regression oracle: assert the simulated
    scalars still match it.  The snapshot itself is only written when
    missing — refreshing the machine-dependent timings is the deliberate
    job of ``scripts/bench_throughput.py`` (which prints the drift it is
    accepting), not a side effect of running the benches.
    """
    previous = load_report()
    report = once(
        benchmark,
        lambda: measure_grid(
            workload=DEFAULT_WORKLOAD,
            schemes=DEFAULT_SCHEMES,
            records=DEFAULT_RECORDS,
            repeats=2,
        ),
    )
    print(f"\nThroughput grid ({report['workload']}, {report['records']} records):")
    for name, entry in report["schemes"].items():
        print(f"  {name:12s} {entry['records_per_sec']:>12,.0f} records/sec")
        assert entry["records_per_sec"] > 0
        assert entry["scalars"]["instructions"] > 0
    if previous is None:
        path = write_report(report)
        assert path.exists()
        return
    drifted = [
        name
        for name, d in compare_reports(previous, report).items()
        if not d["scalars_identical"]
    ]
    assert not drifted, (
        f"simulated scalars changed vs BENCH_throughput.json for "
        f"{drifted}; if intentional, regenerate the snapshot with "
        f"scripts/bench_throughput.py"
    )


def test_simulation_is_deterministic():
    """Two fresh runs of the same (trace, scheme, seed) match bit-for-bit."""
    trace = get_workload(DEFAULT_WORKLOAD).trace(records=5_000)
    first = measure_scheme(trace, "acic", repeats=1)
    second = measure_scheme(trace, "acic", repeats=1)
    assert first.scalars == second.scalars


def test_parallel_sweep_matches_serial(benchmark):
    """jobs=4 returns the same results as the serial sweep (cold caches)."""

    def build():
        serial = Runner(records=10_000, use_disk_cache=False)
        parallel = Runner(records=10_000, use_disk_cache=False)
        return (
            serial.sweep(SWEEP_WORKLOADS, SWEEP_SCHEMES, jobs=1),
            parallel.sweep(SWEEP_WORKLOADS, SWEEP_SCHEMES, jobs=4),
        )

    serial_results, parallel_results = once(benchmark, build)
    assert set(serial_results) == set(parallel_results)
    for key in serial_results:
        assert _scalars_of(serial_results[key]) == _scalars_of(
            parallel_results[key]
        ), f"parallel sweep diverged on {key}"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="sweep wall-clock scaling needs >= 4 cores",
)
def test_parallel_sweep_scales(benchmark):
    """jobs=4 is >= 2x faster than serial on a cold 12-pair sweep."""
    import time

    def timed():
        serial = Runner(records=20_000, use_disk_cache=False)
        parallel = Runner(records=20_000, use_disk_cache=False)
        # Prewarm the shared one-time work (trace generation, frontend
        # plans — memoised process-globally) for both runners before
        # timing either sweep, so the measured ratio is parallelism,
        # not whichever sweep happened to pay the warmup first.
        for workload in SWEEP_WORKLOADS:
            serial.context_for(workload)
            parallel.context_for(workload)

        t0 = time.perf_counter()
        serial.sweep(SWEEP_WORKLOADS, SWEEP_SCHEMES, jobs=1)
        serial_secs = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel.sweep(SWEEP_WORKLOADS, SWEEP_SCHEMES, jobs=4)
        parallel_secs = time.perf_counter() - t0
        return serial_secs, parallel_secs

    serial_secs, parallel_secs = once(benchmark, timed)
    speedup = serial_secs / parallel_secs
    print(
        f"\nserial {serial_secs:.2f}s, parallel(4) {parallel_secs:.2f}s "
        f"({speedup:.2f}x; target 2x)"
    )
    # Target is >=2x on 4 idle cores; assert a softer floor so shared
    # CI boxes under load don't flake while real regressions (no
    # parallelism at all) still fail.
    assert speedup >= 1.5
