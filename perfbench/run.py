"""The repository benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-sweep --seed 0 --seconds 10 --trace 0

Workloads: ``fig-sweep`` and ``service-mix`` (see
``perfbench/README.md`` for what each runs and why).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
re-runs the work with spans around each layer and reports the per-layer
metrics.  Human-readable notes go to stdout first; the last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A listed metric the run did not produce is left out and makes the run
incorrect.  ``--sim-threads 2`` runs ``service-mix`` against a server
with two sim threads (its shipped default), the load that can hit the
artifact temp-file race; the benchmark itself uses one.

Exits non-zero, printing no result, when the program's source tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import DEFAULT_SEED, ROOT

WORKLOADS = ("fig-sweep", "service-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-threads", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    for needed in ("src/repro/harness/runner.py", "scripts/serve_sweeps.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    common = (args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "service-mix":
        from service_mix import ServiceMixBench

        bench = ServiceMixBench(*common, sim_threads=args.sim_threads)
    else:
        from sweeps import SweepBench

        bench = SweepBench(*common)
    bench.run()

    measured = bench.layers if args.trace else bench.e2e
    for note in bench.notes:
        print(f"# {note}")
    for problem in bench.problems:
        print(f"# PROBLEM: {problem}")
    print(f"# failed_frac = {bench.failed / max(1, bench.attempted)!r}")
    if not args.trace:
        for key in sorted(bench.layers):
            if key.startswith("sim."):
                print(f"# {key} = {bench.layers[key]!r}")
    metrics = {}
    for entry in wanted:
        if entry["name"] not in measured:
            bench.problems.append(f"{entry['name']} was not measured")
            print(f"# PROBLEM: {entry['name']} was not measured")
            continue
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"# {entry['name']:<40} {value!r} {entry['unit']}")
    unknown = sorted(set(measured) - {e["name"] for e in wanted})
    if unknown:
        print(f"# measured but not listed in BENCHMARK.json: {unknown}")
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
