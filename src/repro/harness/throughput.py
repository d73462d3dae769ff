"""Simulation-throughput measurement: the repo's perf regression gauge.

Every figure is a sweep over (workload, scheme) pairs pushed through
``simulate``; how many fetch records per second the engine sustains
bounds how many scenarios the reproduction can explore.  This module
measures that number on a fixed (workload, scheme, records, seed) grid
so the perf trajectory is comparable across PRs, and snapshots it to
``BENCH_throughput.json`` at the repo root.

The measurement is deliberately simple — best-of-N wall-clock of a
fresh, uncached simulation — because the quantity tracked is the
engine's single-run throughput, not cache behaviour.  A shared host's
speed drifts between runs, so every row also times a fixed pure-Python
calibration loop in the same process, between its repeats
(``calibration_ns``, best per-iteration time), and reports
``records_per_mcal``: records simulated in the time of one million
calibration iterations.  A slower host slows both alike, so that
calibrated rate is what :func:`compare_reports` compares.  The per-scheme
``scalars`` in the report double as a regression oracle: an engine
change that alters them changed simulated behaviour, not just speed
(``scripts/bench_throughput.py --check`` re-simulates the grid and
fails on any drift without touching the snapshot).

Schemes are measured the way sweeps run them: the workload's
:class:`~repro.frontend.plan.FrontendPlan` is built once per grid (its
one-off cost is reported as ``plan_seconds``) and every scheme's timed
region is the plan-driven ``simulate`` alone.  Grid entries may
override the grid's prefetcher with a ``scheme+prefetcher`` spec:
``lru+entangling`` measures the lru scheme under the entangling
prefetcher, which runs live on the ``none`` plan (plan and prefetcher
built outside the timed region, the prefetcher fresh per repeat).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.frontend.plan import FrontendPlan, build_plan, plan_kind
from repro.harness.experiment import live_prefetcher
from repro.harness.schemes import SchemeContext, make_scheme
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from repro.workloads.trace import Trace

#: The fixed grid: one representative datacenter trace, the baseline
#: scheme, the paper's contribution, the slowest policy competitors as
#: canaries, two ACIC ablation variants so scheme-layer (admission
#: pipeline) wins are tracked separately from engine wins, and two
#: entangling-prefetcher entries (the Figs. 20-21 baseline family), the
#: only grid entries that drive a live prefetcher, so the entangling
#: path is throughput- and drift-tracked.
DEFAULT_WORKLOAD = "media-streaming"
DEFAULT_SCHEMES = (
    "lru",
    "acic",
    "opt",
    "srrip",
    "ghrp",
    "harmony",
    "acic-nofilter",
    "acic-bimodal",
    "lru+entangling",
    "acic+entangling",
)
DEFAULT_RECORDS = 20_000


def parse_scheme_spec(spec: str, default_prefetcher: str) -> Tuple[str, str]:
    """Split a grid entry into (scheme, prefetcher).

    ``"lru"`` inherits the grid's prefetcher; ``"lru+entangling"``
    pins its own.  The spec string itself keys the snapshot entry, so
    the same scheme can appear under several prefetchers in one grid.
    """
    if "+" in spec:
        scheme, prefetcher = spec.split("+", 1)
        return scheme, prefetcher
    return spec, default_prefetcher

#: Scalars that must be bit-identical across engine optimisations.
SCALAR_FIELDS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


#: Iterations per timed calibration round (a few tens of milliseconds).
CALIBRATION_ITERATIONS = 100_000


def _calibration_loop(iterations: int) -> int:
    """Fixed interpreter work shaped like the engine's loop body."""
    table = list(range(64))
    resident = dict.fromkeys(range(0, 64, 3))
    acc = 0.0
    hits = 0
    for i in range(iterations):
        key = i & 63
        if key in resident:
            hits += 1
        acc += table[key] * 0.5
        if acc > 1e6:
            acc = 0.0
    return hits


def calibration_ns() -> float:
    """Nanoseconds per calibration-loop iteration, one timed round."""
    start = time.perf_counter()
    _calibration_loop(CALIBRATION_ITERATIONS)
    return 1e9 * (time.perf_counter() - start) / CALIBRATION_ITERATIONS


@dataclass
class ThroughputSample:
    """Best-of-N timing of one scheme over one trace."""

    scheme: str
    records: int
    seconds: float
    records_per_sec: float
    scalars: Dict[str, float] = field(default_factory=dict)
    calibration_ns: float = 0.0

    @property
    def records_per_mcal(self) -> float:
        """Records simulated in the time of 1e6 calibration iterations."""
        return self.records_per_sec * self.calibration_ns / 1e3


def measure_scheme(
    trace: Trace,
    scheme_spec: str,
    prefetcher: str = "fdp",
    machine: Optional[MachineParams] = None,
    repeats: int = 3,
    plan: Optional[FrontendPlan] = None,
) -> ThroughputSample:
    """Time ``repeats`` fresh simulations of ``scheme_spec``; keep the best.

    A calibration round runs before every repeat; the best of those is
    the sample's ``calibration_ns``.

    ``scheme_spec`` may carry its own prefetcher (``"lru+entangling"``);
    otherwise ``prefetcher`` applies.  Every repeat rebuilds the scheme
    so no state leaks between rounds and the measured cost is a true
    cold single run.  The FrontendPlan is built once (pass ``plan`` to
    share it across a grid, the way sweeps share it across schemes) and
    sits outside the timed region; entangling specs take the ``none``
    plan and a fresh prefetcher per repeat.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    machine = machine or DEFAULT_MACHINE
    scheme_name, prefetcher = parse_scheme_spec(scheme_spec, prefetcher)
    ctx = SchemeContext(trace=trace, machine=machine)
    if plan is None:
        plan = build_plan(trace, machine, plan_kind(prefetcher))
    best = None
    calibration = None
    result = None
    for _ in range(repeats):
        ns = calibration_ns()
        if calibration is None or ns < calibration:
            calibration = ns
        scheme = make_scheme(scheme_name, ctx)
        live = live_prefetcher(prefetcher, trace)
        start = time.perf_counter()
        result = simulate(
            trace, scheme, machine=machine, plan=plan, prefetcher=live
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    scalars = {name: getattr(result, name) for name in SCALAR_FIELDS}
    return ThroughputSample(
        scheme=scheme_spec,
        records=len(trace),
        seconds=best,
        records_per_sec=len(trace) / best if best else 0.0,
        scalars=scalars,
        calibration_ns=calibration,
    )


def profile_scheme(
    trace: Trace,
    scheme_spec: str,
    prefetcher: str = "fdp",
    machine: Optional[MachineParams] = None,
    plan: Optional[FrontendPlan] = None,
    top: int = 20,
) -> str:
    """cProfile one simulation of ``scheme_spec``; returns the top-N table.

    Mirrors :func:`measure_scheme`'s setup (plan built outside the
    profiled region, fresh scheme) so the profile shows exactly what the
    timed region of the benchmark spends, sorted by total time.
    """
    import cProfile
    import io
    import pstats

    machine = machine or DEFAULT_MACHINE
    scheme_name, prefetcher = parse_scheme_spec(scheme_spec, prefetcher)
    ctx = SchemeContext(trace=trace, machine=machine)
    if plan is None:
        plan = build_plan(trace, machine, plan_kind(prefetcher))
    scheme = make_scheme(scheme_name, ctx)
    live = live_prefetcher(prefetcher, trace)
    profiler = cProfile.Profile()
    profiler.runcall(
        simulate, trace, scheme, machine=machine, plan=plan, prefetcher=live
    )
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("tottime").print_stats(top)
    return buffer.getvalue()


def measure_grid(
    workload: str = DEFAULT_WORKLOAD,
    schemes: Iterable[str] = DEFAULT_SCHEMES,
    records: int = DEFAULT_RECORDS,
    prefetcher: str = "fdp",
    repeats: int = 3,
) -> Dict[str, object]:
    """Measure every scheme spec on the fixed grid; returns the report dict.

    The grid's FrontendPlan is built once and shared by every spec that
    inherits the grid prefetcher; ``+entangling`` specs build the
    ``none`` plan they run on.
    """
    trace = get_workload(workload).trace(records=records)
    start = time.perf_counter()
    plan = build_plan(trace, DEFAULT_MACHINE, plan_kind(prefetcher))
    plan_seconds = time.perf_counter() - start
    samples = {}
    for spec in schemes:
        _, spec_prefetcher = parse_scheme_spec(spec, prefetcher)
        spec_plan = plan if spec_prefetcher == prefetcher else None
        samples[spec] = measure_scheme(
            trace, spec, prefetcher=prefetcher, repeats=repeats, plan=spec_plan
        )
    return {
        "workload": workload,
        "records": records,
        "seed": trace.seed,
        "prefetcher": prefetcher,
        "repeats": repeats,
        "plan_seconds": round(plan_seconds, 6),
        "python": sys.version.split()[0],
        "schemes": {
            name: {
                "records_per_sec": round(s.records_per_sec, 1),
                "seconds": round(s.seconds, 6),
                "calibration_ns": round(s.calibration_ns, 3),
                "records_per_mcal": round(s.records_per_mcal, 1),
                "scalars": s.scalars,
            }
            for name, s in samples.items()
        },
    }


def report_path() -> Path:
    """``BENCH_throughput.json`` at the repo root."""
    return Path(__file__).resolve().parents[3] / "BENCH_throughput.json"


def write_report(report: Dict[str, object], path: Optional[Path] = None) -> Path:
    path = path or report_path()
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def load_report(path: Optional[Path] = None) -> Optional[Dict[str, object]]:
    path = path or report_path()
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def compare_reports(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Per-scheme throughput ratio and scalar drift between two reports.

    Only schemes measured on the same (workload, records, prefetcher)
    grid are comparable; mismatched grids return an empty dict.  The
    ratio compares calibrated rates (``records_per_mcal``); a row that
    predates calibration on either side falls back to raw records/sec.
    """
    same_grid = all(
        old.get(k) == new.get(k) for k in ("workload", "records", "prefetcher")
    )
    if not same_grid:
        return {}
    out: Dict[str, Dict[str, object]] = {}
    for name, entry in new["schemes"].items():
        before = old["schemes"].get(name)
        if before is None:
            continue
        key = (
            "records_per_mcal"
            if "records_per_mcal" in entry and "records_per_mcal" in before
            else "records_per_sec"
        )
        ratio = entry[key] / before[key] if before[key] else 0.0
        out[name] = {
            "speedup": round(ratio, 3),
            "scalars_identical": entry["scalars"] == before["scalars"],
        }
    return out


def verify_report(
    path: Optional[Path] = None, repeats: int = 1
) -> List[str]:
    """Re-simulate the snapshot's grid and report scalar drift.

    Returns a list of problems (empty = every scheme still produces
    bit-identical scalars).  The snapshot is never rewritten — this is
    the read-only regression gate behind
    ``scripts/bench_throughput.py --check`` and CI.  ``repeats`` only
    affects timing quality, never the scalars, so 1 is enough.
    """
    old = load_report(path)
    if old is None:
        return [f"no readable snapshot at {path or report_path()}"]
    new = measure_grid(
        workload=old["workload"],
        schemes=list(old["schemes"]),
        records=old["records"],
        prefetcher=old["prefetcher"],
        repeats=repeats,
    )
    problems: List[str] = []
    for name, entry in old["schemes"].items():
        got = new["schemes"][name]["scalars"]
        want = entry["scalars"]
        if got != want:
            drifted = sorted(
                k for k in set(want) | set(got) if want.get(k) != got.get(k)
            )
            detail = ", ".join(
                f"{k}: {want.get(k)} -> {got.get(k)}" for k in drifted
            )
            problems.append(f"{name}: scalar drift ({detail})")
    return problems
