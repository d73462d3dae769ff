#!/usr/bin/env python
"""Property-based workload search for the Figure 11 gap.

Samples workload specs from the fig11 strategy space, scores each by
the share of OPT's MPKI reduction that ACIC recovers on its trace,
shrinks winners to minimal reproducing profiles, and (with ``--save``)
persists them into the scenario registry under ``profiles/found/``.

Usage::

    PYTHONPATH=src python scripts/search_workloads.py --budget 60 --seed 0
    PYTHONPATH=src python scripts/search_workloads.py --budget 60 --seed 0 \
        --save --update-ratchet          # persist winners + ratchet
    PYTHONPATH=src python scripts/search_workloads.py --ratchet-fig11
    PYTHONPATH=src python scripts/search_workloads.py --selfcheck

The run is deterministic in (``--seed``, ``--budget``, ``--records``)
and resumable: every scored pair is an fsynced entry of the result
cache, keyed by workload, scheme, prefetcher, records and machine, so
a killed run finds its prefix warm instead of re-simulating it, and a
re-run with a larger budget extends the sequence.  With
``REPRO_NO_DISK_CACHE=1`` nothing survives the process and a killed
run re-simulates.  A search keeps its results, traces and plans under
the ignored ``.cache/search/`` (``results/``, ``traces/``, ``plans/``),
not in the tracked ``.cache/`` directories, unless ``REPRO_RESULT_CACHE``,
``REPRO_TRACE_CACHE`` or ``REPRO_PLAN_CACHE`` point elsewhere.

``--selfcheck`` (the CI smoke) runs a tiny search against isolated
caches in a temp directory, which it removes whether it passes or
fails, and asserts the subsystem's contracts end-to-end: determinism,
resume from the result cache after a simulated kill, shrink
termination, registry round-trip through ``get_workload``, and score
reproduction on a fresh re-simulation.

``--ratchet-fig11`` re-measures the Figure 11 grid share (the ten
datacenter workloads at the bench record count, read from the committed
``.cache/results``) and writes it into
``profiles/found/RATCHET.json`` as the floor
``benchmarks/test_fig11_mpki.py`` asserts against.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

#: Where a search keeps each cache, under the ignored ``.cache/search/``.
SEARCH_CACHES = {
    "REPRO_RESULT_CACHE": REPO / ".cache" / "search" / "results",
    "REPRO_TRACE_CACHE": REPO / ".cache" / "search" / "traces",
    "REPRO_PLAN_CACHE": REPO / ".cache" / "search" / "plans",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=24, help="samples to draw")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument(
        "--records", type=int, default=20_000,
        help="trace length per scored candidate (short grid)",
    )
    parser.add_argument(
        "--space", default="fig11-v1", help="strategy space to search"
    )
    parser.add_argument(
        "--min-share", type=float, default=0.10,
        help="winner bar: ACIC's share of OPT's MPKI reduction",
    )
    parser.add_argument(
        "--top", type=int, default=3, help="winners kept (and shrunk)"
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking winners"
    )
    parser.add_argument(
        "--shrink-evaluations", type=int, default=120,
        help="max fresh scores the shrinker may spend per winner",
    )
    parser.add_argument(
        "--save", action="store_true",
        help="persist shrunk winners into profiles/found/",
    )
    parser.add_argument(
        "--update-ratchet", action="store_true",
        help="advance RATCHET.json's best_found entry when beaten",
    )
    parser.add_argument(
        "--ratchet-fig11", action="store_true",
        help="re-measure the Fig 11 grid share and write it as the ratchet floor",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the CI smoke suite against isolated caches and exit",
    )
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck()
    if args.ratchet_fig11:
        return ratchet_fig11()

    for var, path in SEARCH_CACHES.items():
        os.environ.setdefault(var, str(path))
    from repro.workloads.search.harness import SearchConfig, run_search

    config = SearchConfig(
        budget=args.budget,
        seed=args.seed,
        records=args.records,
        space=args.space,
        min_share=args.min_share,
        shrink=not args.no_shrink,
        shrink_evaluations=args.shrink_evaluations,
        top=args.top,
        save=args.save,
        update_ratchet=args.update_ratchet,
    )
    report = run_search(config, log=print)
    print(
        f"\nscored {config.budget} samples "
        f"({report.simulated} simulated, {report.replayed} replayed from "
        f"the result cache)"
    )
    best = report.best
    if best is not None:
        spec, card = best
        print(f"best sample: {spec.workload_name} share={card.share:.3f}")
    for record in report.shrunk:
        print(
            f"minimal reproduction: {record.spec.workload_name} "
            f"share={record.card.share:.3f} ({record.steps} shrink steps)\n"
            f"  {record.spec!r}"
        )
    return 0


def ratchet_fig11() -> int:
    """Measure the W10 grid share and commit it as the ratchet floor."""
    from repro.harness.runner import Runner
    from repro.harness.scoring import average_share
    from repro.workloads.search.registry import read_ratchet, write_ratchet

    sys.path.insert(0, str(REPO / "benchmarks"))
    from bench_support import W10

    runner = Runner(prefetcher="fdp")
    share, _ = average_share(runner, W10)
    ratchet = read_ratchet()
    # Floor slightly under the measurement: the grid is deterministic,
    # but the floor should never be the thing that breaks on a genuine
    # (tiny, positive) model fix elsewhere.
    floor = round(share - 0.001, 4)
    previous = ratchet.get("fig11", {}).get("share_floor", 0.0)
    if floor < float(previous):
        print(
            f"refusing to lower the fig11 floor: measured {share:.4f} "
            f"-> floor {floor:.4f} < committed {previous}"
        )
        return 1
    ratchet["fig11"] = {
        "share_floor": floor,
        "measured_share": round(share, 6),
        "records": runner.records,
        "workloads": list(W10),
    }
    path = write_ratchet(ratchet)
    print(f"fig11 grid share {share:.4f}; floor {floor:.4f} -> {path}")
    return 0


def selfcheck() -> int:
    """CI smoke: tiny search, isolated caches, end-to-end assertions.

    The caches live in a temp directory, removed however the check ends.
    """
    tmp = Path(tempfile.mkdtemp(prefix="search-selfcheck-"))
    try:
        return _selfcheck(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _selfcheck(tmp: Path) -> int:
    for var, sub in (
        ("REPRO_RESULT_CACHE", "results"),
        ("REPRO_TRACE_CACHE", "traces"),
        ("REPRO_PLAN_CACHE", "plans"),
        ("REPRO_FOUND_PROFILES", "found"),
    ):
        os.environ[var] = str(tmp / sub)
    os.environ.pop("REPRO_NO_DISK_CACHE", None)

    from repro.workloads.profiles import get_workload, reload_found_workloads
    from repro.harness.runner import Runner
    from repro.harness.scoring import score_workload
    from repro.workloads.search.harness import SearchConfig, run_search
    from repro.workloads.search.registry import load_found_entry, read_ratchet

    records = 2_000
    base = dict(
        budget=4, seed=11, records=records, min_share=0.02,
        shrink_evaluations=12, top=1,
    )

    # 1. a killed search resumes from the result cache: the first
    #    (smaller) run stands in for the pre-kill prefix.
    first = run_search(SearchConfig(budget=2, **{k: v for k, v in base.items() if k != "budget"}, shrink=False))
    assert first.simulated == 2 and first.replayed == 0, (
        first.simulated, first.replayed)
    resumed = run_search(SearchConfig(shrink=False, **base))
    assert resumed.replayed == 2 and resumed.simulated == 2, (
        resumed.simulated, resumed.replayed)
    print("selfcheck: result-cache resume ok (2 replayed, 2 fresh)")

    # 2. determinism: a full re-run replays everything with equal scores.
    rerun = run_search(SearchConfig(shrink=False, **base))
    assert rerun.simulated == 0 and rerun.replayed == 4
    assert [
        (s.fingerprint, c.share) for s, c in rerun.samples
    ] == [(s.fingerprint, c.share) for s, c in resumed.samples]
    print("selfcheck: deterministic replay ok")

    # 3. shrink + registry round-trip: persist winners, reload through
    #    get_workload, re-simulate without the result cache and compare.
    report = run_search(SearchConfig(save=True, update_ratchet=True, **base))
    assert report.winners, "no winner above the (deliberately low) smoke bar"
    assert report.shrunk and report.saved
    for record in report.shrunk:
        assert record.card.share >= base["min_share"]
    reload_found_workloads()
    for path in report.saved:
        spec, payload = load_found_entry(path)
        profile = get_workload(spec.workload_name)
        fresh = Runner(records=records, use_disk_cache=False)
        card = score_workload(fresh, profile.name)
        recorded = payload["score"]
        assert abs(card.share - float(recorded["share"])) < 1e-12, (
            card.share, recorded["share"])
        assert card.baseline_mpki == float(recorded["baseline_mpki"])
    ratchet = read_ratchet()
    assert ratchet.get("best_found", {}).get("share", 0.0) > 0.0
    print(
        f"selfcheck: registry round-trip ok "
        f"({len(report.saved)} profile(s) re-simulated identically)"
    )
    print("selfcheck: all good")
    return 0


if __name__ == "__main__":
    sys.exit(main())
