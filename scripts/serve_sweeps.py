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

The service is built before any thread starts, then served by
``repro.service.server.run_service`` on the main thread's event loop.
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
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service.server import (  # noqa: E402
    SIZE_FLOORS,
    ServiceConfig,
    SweepService,
    run_service,
)


async def _serve(service: SweepService, host: str, port: int) -> None:
    """Serve until SIGTERM/SIGINT, then drain; the loop is this thread's."""
    stop = asyncio.Event()

    def drain() -> None:
        if not stop.is_set():
            print(
                "sweep service draining "
                f"({service.cold_sweeps} sweeps in flight)...",
                flush=True,
            )
            stop.set()

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, drain)
    await run_service(
        service,
        host,
        port,
        stop,
        lambda bound: print(
            f"sweep service listening on http://{bound[0]}:{bound[1]}",
            flush=True,
        ),
    )
    print("sweep service drained; exiting", flush=True)


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
        default=ServiceConfig().max_queue,
        help="cold sweeps in flight before new cold work is refused (503)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=ServiceConfig().drain_timeout,
        help="seconds to let in-flight sweeps reach a shard boundary "
        "(or finish) after SIGTERM/SIGINT before exiting",
    )
    args = parser.parse_args(argv)
    config = ServiceConfig(
        records=args.records,
        jobs=args.jobs,
        max_concurrent_sweeps=args.max_concurrent,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
    )
    for flag, name in (
        ("--jobs", "jobs"),
        ("--max-concurrent", "max_concurrent_sweeps"),
        ("--max-queue", "max_queue"),
        ("--drain-timeout", "drain_timeout"),
    ):
        value, least = getattr(config, name), SIZE_FLOORS[name]
        if value < least:
            parser.error(f"{flag} must be at least {least}, got {value}")

    # Built, and its pool forked, before any thread starts.
    service = SweepService(config)
    asyncio.run(_serve(service, args.host, args.port))
    print("sweep service exited cleanly", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
