#!/usr/bin/env python
"""Benchmark the sweep service: warm requests/sec, cold latency.

Usage::

    PYTHONPATH=src python scripts/bench_service.py                  # measure
    PYTHONPATH=src python scripts/bench_service.py --check          # CI smoke
    PYTHONPATH=src python scripts/bench_service.py --records 20000 \
        --workloads x264,gcc --schemes lru,srrip,acic --warm-requests 200

Starts an in-process server (background thread, ephemeral port) against
an *isolated temporary result cache* — cold numbers are genuinely cold,
and the repo's ``.cache/results`` is never touched.  Every response is
verified scalar-identical to a direct ``Runner.sweep`` of the same grid
before any number is reported; a service that answered fast but wrong
fails the bench.

``--check`` is the CI gate: one cold request (every pair simulated),
one warm request (every pair served from cache, zero simulations), one
streamed request (event-per-pair protocol), then two more cold requests
that exercise the shared workload walk: one at ``records + 1`` (the
same traces, cut from a walk the server now shares between lengths,
so their results are reused) and one at ``4 * records`` (the walk
resumes; nothing is reused).  Everything is verified, the traces also
against each other (every length is the longest trace cut at its first
request entry at or past that length) and the ``reused`` counts against
the traces; exit non-zero on any mismatch.  Traces and plans go to temporary caches too, so the
repo's ``.cache`` is never written.  The timing numbers are printed for
humans but never asserted — machine speed must not fail CI.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.runner import Runner, _SCALAR_FIELDS  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.protocol import pair_token  # noqa: E402
from repro.service.server import ServiceConfig, ServiceThread  # noqa: E402
from repro.workloads.profiles import get_workload  # noqa: E402
from repro.workloads.program import build_program  # noqa: E402

DEFAULT_WORKLOADS = ("x264", "gcc")
DEFAULT_SCHEMES = ("lru", "srrip")
DEFAULT_RECORDS = 3_000


def _verify(
    response: dict,
    expected: dict,
    want_source: str | None,
) -> list[str]:
    """Scalar-compare a response against direct-sweep results."""
    problems = []
    for (workload, scheme), run in expected.items():
        token = pair_token(workload, scheme)
        got = response["results"].get(token)
        want = {k: getattr(run, k) for k in _SCALAR_FIELDS}
        if got != want:
            problems.append(f"{token}: scalars differ from direct sweep")
        source = response["sources"].get(token)
        if want_source is not None and source != want_source:
            problems.append(
                f"{token}: expected source {want_source!r}, got {source!r}"
            )
    return problems


def _verify_walk_cuts(
    client: ServiceClient,
    workloads: list[str],
    schemes: list[str],
    records: int,
) -> list[str]:
    """Cold requests at ``records + 1`` and ``4 * records``.

    This process first asked each workload for ``records`` records (a
    fresh single-length walk), so the ``records + 1`` request starts the
    shared walk (mostly cutting the very same trace, since a walk stops
    at a request entry) and the ``4 * records`` request resumes it.
    Each response must match a direct sweep, and every length's trace
    must be the longest one cut at its first request entry at or past
    that length.  Results follow traces: the ``records + 1`` request
    must count as ``reused`` exactly its pairs whose trace is the
    ``records`` trace, and the ``4 * records`` request none.
    """
    problems = []
    counts = (records, records + 1, 4 * records)
    reused = {}
    for count in counts[1:]:
        before = client.health()["stats"]["reused"]
        response = client.sweep(workloads, schemes, records=count)
        reused[count] = response["stats"]["reused"] - before
        expected = Runner(records=count, use_disk_cache=False).sweep(
            workloads, schemes
        )
        problems += [
            f"records={count} {p}"
            for p in _verify(response, expected, want_source="simulated")
        ]
    shared = 0
    for workload in workloads:
        profile = get_workload(workload)
        entry_site = build_program(profile.shape, seed=profile.seed).dispatch_site
        longest = profile.trace(records=counts[-1])
        digests = []
        for count in counts:
            entries = np.flatnonzero(longest.branch_site[count:] == entry_site)
            end = count + int(entries[0]) if len(entries) else len(longest)
            cut = replace(longest.slice(0, end), name=profile.name)
            trace = profile.trace(records=count)
            digests.append(trace.digest)
            if len(trace) < count or trace.digest != cut.digest:
                problems.append(
                    f"{workload}@{count}: not the r{counts[-1]} trace cut at "
                    f"its first request entry at or past {count}"
                )
        shared += len(schemes) * (digests[1] == digests[0])
    for count, want in ((counts[1], shared), (counts[2], 0)):
        if reused[count] != want:
            problems.append(
                f"records={count}: {reused[count]} pairs reused, expected {want}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS)
    parser.add_argument(
        "--workloads", default=",".join(DEFAULT_WORKLOADS),
        help="comma-separated workload names",
    )
    parser.add_argument(
        "--schemes", default=",".join(DEFAULT_SCHEMES),
        help="comma-separated scheme names",
    )
    parser.add_argument(
        "--warm-requests", type=int, default=50,
        help="warm requests timed for the throughput number",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI smoke: one cold + one warm + one streamed request, then "
        "cold requests at records+1 and 4*records, verified against a "
        "direct Runner.sweep; exit non-zero on mismatch",
    )
    args = parser.parse_args(argv)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    pairs = len(workloads) * len(schemes)

    with tempfile.TemporaryDirectory(prefix="bench_service.") as tmp:
        os.environ["REPRO_RESULT_CACHE"] = tmp
        if args.check:
            for var in ("REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
                os.environ[var] = os.path.join(tmp, var.lower())

        expected = Runner(records=args.records, use_disk_cache=False).sweep(
            workloads, schemes
        )

        with ServiceThread(ServiceConfig(records=args.records)) as svc:
            # retries=4: transient 503s / connection refusals (e.g. a
            # server restarting mid-bench) back off and retry instead
            # of failing the bench run.
            client = ServiceClient(port=svc.port, retries=4)

            start = time.perf_counter()
            cold = client.sweep(workloads, schemes)
            cold_seconds = time.perf_counter() - start
            problems = _verify(cold, expected, want_source="simulated")

            start = time.perf_counter()
            warm = client.sweep(workloads, schemes)
            warm_seconds = time.perf_counter() - start
            problems += _verify(warm, expected, want_source="warm")

            events = list(client.sweep_stream(workloads, schemes))
            results = [e for e in events if e["event"] == "result"]
            if len(results) != pairs or events[-1]["event"] != "done":
                problems.append(
                    f"stream: expected {pairs} result events + done, got "
                    f"{[e['event'] for e in events]}"
                )
            for event in results:
                run = expected[(event["workload"], event["scheme"])]
                want = {k: getattr(run, k) for k in _SCALAR_FIELDS}
                if event["scalars"] != want:
                    problems.append(
                        f"stream {event['workload']}::{event['scheme']}: "
                        "scalars differ from direct sweep"
                    )

            if args.check:
                problems += _verify_walk_cuts(
                    client, workloads, schemes, args.records
                )

            print(
                f"bench_service: records={args.records} "
                f"grid={len(workloads)}x{len(schemes)} ({pairs} pairs)"
            )
            print(f"  cold end-to-end:  {cold_seconds * 1000:9.1f} ms")
            print(f"  warm round-trip:  {warm_seconds * 1000:9.1f} ms")

            if problems:
                for problem in problems:
                    print(f"MISMATCH: {problem}", file=sys.stderr)
                return 1
            if args.check:
                print(
                    "service responses scalar-identical to direct "
                    "Runner.sweep (cold, warm, streamed, and cold at "
                    f"{args.records + 1} and {4 * args.records} records "
                    "from the shared walk, reusing the results of shared "
                    "traces)"
                )
                return 0

            start = time.perf_counter()
            for _ in range(args.warm_requests):
                client.sweep(workloads, schemes)
            elapsed = time.perf_counter() - start
            print(
                f"  warm throughput:  {args.warm_requests / elapsed:9.1f} "
                f"requests/sec ({args.warm_requests} sequential requests)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
