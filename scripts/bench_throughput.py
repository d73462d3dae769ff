#!/usr/bin/env python
"""Measure simulator throughput and snapshot it to BENCH_throughput.json.

Usage::

    PYTHONPATH=src python scripts/bench_throughput.py
    PYTHONPATH=src python scripts/bench_throughput.py \
        --schemes lru,acic --records 50000 --repeats 5

Runs the fixed (workload, scheme, records, seed) grid from
:mod:`repro.harness.throughput`, prints records/sec and the calibrated
rate (records per million iterations of a fixed calibration loop timed
in the same process) per scheme, writes the JSON snapshot at the repo
root, and — when a previous snapshot on the same grid exists — prints
the per-scheme calibrated speedup against it and whether the simulated
scalars stayed bit-identical.

``--check`` is the CI regression gate: it re-simulates the snapshot's
own grid and exits non-zero on any scalar drift, without rewriting the
snapshot (timing noise never fails the check; behaviour change does).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.throughput import (  # noqa: E402  (path bootstrap above)
    DEFAULT_RECORDS,
    DEFAULT_SCHEMES,
    DEFAULT_WORKLOAD,
    compare_reports,
    load_report,
    measure_grid,
    profile_scheme,
    report_path,
    verify_report,
    write_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD)
    parser.add_argument(
        "--schemes",
        default=",".join(DEFAULT_SCHEMES),
        help="comma-separated scheme names",
    )
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--prefetcher", default="fdp")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="snapshot path (default: BENCH_throughput.json at the repo root)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and print only; leave the snapshot untouched",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-simulate the snapshot's grid and fail on scalar drift "
        "without rewriting it (ignores the grid flags above)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one simulation per scheme (top-20 by total time) "
        "instead of timing; implies --no-write",
    )
    args = parser.parse_args(argv)

    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    out_path = args.output or report_path()

    if args.profile:
        from repro.workloads.profiles import get_workload

        trace = get_workload(args.workload).trace(records=args.records)
        for spec in schemes:
            print(f"=== {spec} (workload={args.workload}, "
                  f"records={args.records}, prefetcher={args.prefetcher}) ===")
            print(profile_scheme(trace, spec, prefetcher=args.prefetcher))
        return 0

    if args.check:
        problems = verify_report(out_path, repeats=1)
        if problems:
            for problem in problems:
                print(f"DRIFT: {problem}", file=sys.stderr)
            return 1
        print(f"scalars bit-identical to snapshot {out_path}")
        return 0

    previous = load_report(out_path)

    report = measure_grid(
        workload=args.workload,
        schemes=schemes,
        records=args.records,
        prefetcher=args.prefetcher,
        repeats=args.repeats,
    )

    print(
        f"workload={report['workload']} records={report['records']} "
        f"seed={report['seed']} prefetcher={report['prefetcher']} "
        f"best-of-{report['repeats']}"
    )
    delta = compare_reports(previous, report) if previous else {}
    for name in schemes:
        entry = report["schemes"][name]
        line = (
            f"  {name:15s} {entry['records_per_sec']:>10,.0f} records/sec"
            f" {entry['records_per_mcal']:>8,.0f} records/Mcal"
        )
        if name in delta:
            d = delta[name]
            tag = "identical" if d["scalars_identical"] else "CHANGED"
            line += f"   {d['speedup']:.2f}x vs snapshot (scalars {tag})"
        print(line)

    if not args.no_write:
        path = write_report(report, out_path)
        print(f"\nsnapshot written to {path}")
    if any(not d["scalars_identical"] for d in delta.values()):
        print(
            "WARNING: simulated scalars differ from the previous snapshot — "
            "the engine's behaviour changed, not just its speed.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
