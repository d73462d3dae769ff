#!/usr/bin/env python
"""Run the sweep service in the foreground.

Usage::

    PYTHONPATH=src python scripts/serve_sweeps.py                # port 8437
    PYTHONPATH=src python scripts/serve_sweeps.py --port 0       # ephemeral
    PYTHONPATH=src python scripts/serve_sweeps.py --jobs 4 --records 160000

Then, from any HTTP client::

    curl -s localhost:8437/healthz
    curl -s localhost:8437/sweep -d '{"workloads": ["x264"], "schemes": ["lru", "acic"]}'
    curl -sN localhost:8437/sweep -d '{"workloads": ["x264"], "schemes": ["lru", "acic"], "stream": true}'

Warm pairs answer straight from the fingerprinted ``.cache/results``
store; identical in-flight grids are deduped to one simulation; cold
work queues through ``Runner.sweep_pairs`` with bounded concurrency and
simulates in ``--jobs`` resident worker processes, forked at start-up
before any thread starts and shared by the sim threads (see
``ARCHITECTURE.md``, "The service layer").  Set any ``REPRO_*``
variable before starting the server: the workers keep the environment
they were forked with.

Shutdown is graceful: SIGTERM (or Ctrl-C) starts a drain — new
``/sweep`` requests get 503 while in-flight sweeps run to their next
shard-ledger boundary (``REPRO_SHARD_WINDOW``; non-sharded sweeps run
to completion within ``--drain-timeout``), then the process exits 0.
Restarting the server resumes drained work from the fsync'd ledgers,
scalar-identical to an uninterrupted run (``tests/test_service_drain.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service.server import ServiceConfig, serve  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8437, help="0 = pick a free port"
    )
    parser.add_argument(
        "--records",
        type=int,
        default=None,
        help="default trace length for requests that omit 'records' "
        "(default: the harness default, honouring REPRO_SCALE)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=ServiceConfig().jobs,
        help="resident worker processes every cold sweep simulates in, "
        "forked at start-up with the environment they keep; 1 = simulate "
        "in the sim threads (sharded sweeps always do) "
        "(default: min(2, CPU count))",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=ServiceConfig().max_concurrent_sweeps,
        help="simultaneous cold sweeps, sharing the --jobs workers "
        "(default: 2)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="cold sweeps in flight before new cold work is refused (503)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let in-flight sweeps reach a shard boundary "
        "(or finish) after SIGTERM/SIGINT before exiting",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.max_concurrent < 1:
        parser.error(
            f"--max-concurrent must be at least 1, got {args.max_concurrent}"
        )

    config = ServiceConfig(
        records=args.records,
        jobs=args.jobs,
        max_concurrent_sweeps=args.max_concurrent,
        max_queue=args.max_queue,
    )
    try:
        asyncio.run(
            serve(
                config,
                host=args.host,
                port=args.port,
                drain_timeout=args.drain_timeout,
            )
        )
    except KeyboardInterrupt:
        # Only reachable where add_signal_handler is unavailable (the
        # handler path turns SIGINT into a drain, not an exception).
        print("\nsweep service stopped")
    print("sweep service exited cleanly", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
