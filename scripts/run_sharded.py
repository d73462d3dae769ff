#!/usr/bin/env python
"""Run one (workload, scheme) pair as windowed, resumable shards.

Usage::

    PYTHONPATH=src python scripts/run_sharded.py media-streaming lru \
        --records 100000 --window 20000

Each completed window boundary is fsync'd into the shard ledger before
the next window starts, so the run survives anything: Ctrl-C / SIGTERM
stop it *gracefully* at the next boundary (exit 3, ledger kept), a
SIGKILL or crash loses at most one window, and re-running the same
command resumes from the last completed boundary — the stitched result
is bit-identical to an uninterrupted single pass
(``tests/test_shards.py`` pins the ledger, ``tests/test_run_sharded.py``
this command).  Windows are checkpoint cadences over one run, not
separate runs: nothing is written per window except the ledger.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.experiment import run_experiment, scaled_records  # noqa: E402
from repro.harness.shards import DrainRequested  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("scheme", nargs="?", default="acic")
    parser.add_argument("--prefetcher", default="fdp")
    parser.add_argument(
        "--records",
        type=int,
        default=None,
        help="trace length (default: the harness default, REPRO_SCALE-scaled)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=20000,
        help="records per shard window (boundary state persists per window)",
    )
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error("--window must be >= 1")

    records = scaled_records(args.records)
    stopping = False

    def request_stop(signum, frame) -> None:
        nonlocal stopping
        if not stopping:
            print(
                "\nstopping at the next shard boundary "
                "(re-run to resume; Ctrl-C again to abort hard)...",
                flush=True,
            )
        stopping = True
        signal.signal(signum, signal.SIG_DFL)  # second signal: default

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, request_stop)

    def on_shard(shard: int, done: int, total: int) -> None:
        print(
            f"shard {shard} complete: {done}/{total} records "
            f"({100.0 * done / total:.1f}%)",
            flush=True,
        )

    try:
        result = run_experiment(
            args.workload,
            args.scheme,
            prefetcher=args.prefetcher,
            records=records,
            shard_window=args.window,
            on_shard=on_shard,
            should_stop=lambda: stopping,
        )
    except DrainRequested as exc:
        print(f"{exc}", flush=True)
        return 3
    run = result.run
    print(
        f"{args.workload}/{args.scheme}: cycles={run.cycles} "
        f"mpki={run.mpki:.4f} ipc={run.ipc:.4f}",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
