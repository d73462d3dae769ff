"""The ``fig-sweep`` workload.

Timed run: cold ``Runner.sweep`` calls (``jobs=2``, isolated empty
caches) of the W10 x five-scheme grid, as many as ``--seconds`` buys at
the sweep's nominal length.

Traced run (``--trace 1``): after the timed sweep, a serial re-execution
of the same grid against fresh caches with spans around each layer's
public functions, then record-then-replay attribution of every scheme on
one representative workload.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from attribution import RecordingScheme, replay
from common import (
    DEFAULT_SEED,
    Bench,
    ROOT,
    WORK_DIR,
    Isolation,
    Tracer,
    median,
    peak_rss_mb,
    reset_artifact_memos,
    spearman,
    tail,
)

RECORDS = 160_000
JOBS = 2
SETUP_PROBES = 5
VERIFY_PAIRS = 2
ATTRIBUTION_REPEATS = 3
#: The workload whose pairs get record-then-replay attribution.
ATTRIBUTE_ON = "media-streaming"
PAPER_SPEEDUP = 1.0223
PAPER_OPT_SHARE = 0.5585
W10 = (
    "media-streaming", "data-caching", "data-serving", "web-serving",
    "web-search", "tpcc", "wikipedia", "sibench", "finagle-http",
    "neo4j-analytics",
)

SCHEMES = ("lru", "acic", "opt", "ghrp", "harmony")
PREFETCHER = "fdp"
#: Typical cold sweep wall clock on a 2-core host: ``--seconds`` buys
#: ``round(seconds / NOMINAL_S)`` sweeps (at least one), a fixed amount
#: of work per run.
NOMINAL_S = 13.0
#: Per-layer metrics of the service that a sweep does not drive.
NOT_EXERCISED = (
    "harness.warm_lookup_us",
    "service.healthz_p50_ms",
    "service.warm_p50_ms",
    "service.warm_tail_ms",
    "service.warm_hits",
    "service.dedup_hits",
    "service.admitted",
    "service.rejected_503",
    "service.errors_500",
)


def seeded_names(workloads, seed: int) -> Dict[str, str]:
    """Calibrated name -> name to sweep under ``seed``.

    The default seed sweeps the calibrated profiles themselves.  Any
    other seed registers copies with a derived trace seed, before any
    pool forks, so every worker resolves the same inputs.
    """
    from repro.workloads.profiles import get_workload, register_workload

    if seed == DEFAULT_SEED:
        return {w: w for w in workloads}
    names = {}
    for w in workloads:
        profile = get_workload(w)
        copy = replace(profile, name=f"{w}-s{seed}", seed=profile.seed + 1000 * seed)
        register_workload(copy)
        names[w] = copy.name
    return names


def scalars(run) -> Dict[str, object]:
    from repro.harness.runner import _SCALAR_FIELDS

    return {k: getattr(run, k) for k in _SCALAR_FIELDS}


def probe_setup(seed: int) -> float:
    """Median wall time from interpreter start to ready-to-time."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    return median(samples)


def fidelity(results, names: Dict[str, str], workloads) -> Dict[str, float]:
    """Simulated fidelity to the paper over the workloads' lru/acic/opt."""
    from repro.common.stats import geomean
    from repro.workloads.profiles import get_workload

    lru = [results[(names[w], "lru")] for w in workloads]
    acic = [results[(names[w], "acic")] for w in workloads]
    opt = [results[(names[w], "opt")] for w in workloads]
    speedup = geomean(a.speedup_over(b) for a, b in zip(acic, lru))
    acic_red = sum(a.mpki_reduction_over(b) for a, b in zip(acic, lru)) / len(lru)
    opt_red = sum(o.mpki_reduction_over(b) for o, b in zip(opt, lru)) / len(lru)
    share = acic_red / opt_red if opt_red else 0.0
    rho = spearman([r.mpki for r in lru], [get_workload(w).paper_mpki for w in workloads])
    return {
        "sim.acic_speedup": speedup,
        "sim.acic_opt_share": share,
        "sim.speedup_err": abs(speedup - PAPER_SPEEDUP),
        "sim.opt_share_err": abs(share - PAPER_OPT_SHARE),
        "sim.mpki_rank_err": 1.0 - rho,
    }


def layer_targets() -> list:
    """The public layer functions the traced run wraps in spans."""
    from repro.frontend import plan
    from repro.harness import experiment, schemes
    from repro.mem import prepass
    from repro.workloads import profiles, trace

    io = ("save", "load", "load_mmap")
    return [
        (profiles, "build_program", "workloads.generate"),
        (profiles, "generate_trace", "workloads.generate", len),
        *((trace.Trace, m, "workloads.io") for m in io),
        (plan, "build_plan", "frontend.plan"),
        *((plan.FrontendPlan, m, "frontend.io") for m in io),
        (prepass, "build_replacement_prepass", "mem.prepass"),
        *((prepass.ReplacementPrepass, m, "mem.prepass_io") for m in io),
        (schemes, "NextUseOracle", "mem.oracle"),
        (experiment, "simulate", "uarch.simulate"),
    ]


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer self times of a traced run; the rest is unattributed."""
    selfs = tracer.self_times()
    layer = lambda *keys: sum(selfs.get(k, 0.0) for k in keys)  # noqa: E731
    unattributed = wall - layer(*(k for k in selfs if not k.startswith("harness.")))
    return {
        "workloads.trace_s": layer("workloads.generate"),
        "workloads.trace_io_s": layer("workloads.io"),
        "workloads.records": tracer.counts.get("workloads.generate", 0),
        "frontend.plan_s": layer("frontend.plan"),
        "frontend.plan_io_s": layer("frontend.io"),
        "mem.prepass_s": layer("mem.prepass"),
        "mem.prepass_io_s": layer("mem.prepass_io"),
        "mem.oracle_s": layer("mem.oracle"),
        "uarch.simulate_s": layer("uarch.simulate"),
        "harness.traced_wall_s": wall,
        "harness.unattributed_s": unattributed,
        "harness.unattributed_share": unattributed / wall,
    }


class SweepBench(Bench):
    # -- timed ---------------------------------------------------------------

    def _timed_sweep(self, iso: Isolation, pairs):
        """One cold sweep; returns (results, cold ms, wall s).

        Cold samples are each pair's time from sweep start to its result:
        every pair is asked at once, and results land one by one.
        """
        from repro.harness.runner import Runner

        iso.phase("timed")
        reset_artifact_memos()
        runner = Runner(records=RECORDS, prefetcher=PREFETCHER)
        cold_ms: List[float] = []

        def on_result(workload: str, scheme: str, result) -> None:
            cold_ms.append(1000.0 * (time.perf_counter() - start))

        start = time.perf_counter()
        try:
            runner.sweep_pairs(pairs, jobs=JOBS, on_result=on_result)
        except Exception as exc:  # the sweep gave up: count what is missing
            self.problems.append(f"sweep raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        results = {}
        for pair in pairs:
            run = runner.cached(*pair)
            if run is None:
                self.failed += 1
            else:
                results[pair] = run
        return results, cold_ms, wall

    def run(self) -> None:
        # A dead or hung pool fails the sweep instead of being retried
        # away inside it; the missing pairs then count as failed.
        os.environ["REPRO_SWEEP_RETRIES"] = "0"
        if not self.traced:
            self.e2e["setup_s"] = probe_setup(self.seed)
        iso = Isolation(self.workload)
        try:
            names = seeded_names(W10, self.seed)
            pairs = [(names[w], s) for w in W10 for s in SCHEMES]

            # A closed loop of whole cold sweeps.
            sweeps = max(1, round(self.seconds / NOMINAL_S))
            walls, cold_ms, first = [], [], None
            for _ in range(sweeps):
                self.attempted += len(pairs)
                results, cold, wall = self._timed_sweep(iso, pairs)
                walls.append(wall)
                cold_ms += cold
                first = first or results
                for pair, run in results.items():
                    if pair in first and scalars(run) != scalars(first[pair]):
                        self.fail(f"{pair}: differs between cold sweeps")

            total_wall = sum(walls)
            # Before any checking re-simulates in this process; the pool
            # workers are reaped, so their peak counts too.
            self.e2e["peak_rss_mb"] = peak_rss_mb()
            self.e2e["records_per_s"] = len(pairs) * sweeps * RECORDS / total_wall
            self.e2e["requests_per_s"] = len(pairs) * sweeps / total_wall
            self.e2e["cold_p50_ms"] = median(cold_ms)
            cold_tail, cold_pct, _ = tail(cold_ms)
            self.e2e["cold_tail_ms"] = cold_tail
            self.notes.append(
                f"{sweeps} cold sweep(s) of {len(pairs)} pairs in {total_wall:.2f} s; "
                f"cold tail = p{cold_pct:g} of {len(cold_ms)} pair completions"
            )

            self._check_outputs(iso, names, pairs, results)
            if len(results) == len(pairs):
                self.layers.update(fidelity(results, names, W10))
            if self.traced:
                self._traced(iso, names, pairs, results, walls[-1])
        finally:
            changed = iso.close()
            if changed:
                self.fail(f"repo .cache changed during the run: {changed[:5]}")
        self.layers.update(dict.fromkeys(NOT_EXERCISED, 0))

    # -- correctness -----------------------------------------------------------

    def _check_outputs(self, iso, names, pairs, results) -> None:
        """Default seed: every pair bit-for-bit against the committed
        ``.cache/results``.  Other seeds without a traced run:
        ``VERIFY_PAIRS`` seeded pairs re-simulated serially against fresh
        artifact caches (across runs with different seeds every scheme
        gets checked)."""
        from repro.harness.experiment import run_experiment
        from repro.uarch.params import DEFAULT_MACHINE

        if self.seed == DEFAULT_SEED:
            fp = DEFAULT_MACHINE.fingerprint()
            committed = ROOT / ".cache" / "results"
            for w, s in pairs:
                path = committed / f"{w}.{s}.{PREFETCHER}.r{RECORDS}.{fp}.json"
                try:
                    want = json.loads(path.read_text())
                except (OSError, ValueError) as exc:
                    self.fail(f"{path.name}: unreadable committed result ({exc})")
                    continue
                got = results.get((w, s))
                if got is None or any(want.get(k) != v for k, v in scalars(got).items()):
                    self.fail(f"{w}/{s}: differs from committed {path.name}")
            return
        if self.traced:
            return  # the traced serial re-execution checks every pair
        iso.phase("verify")
        reset_artifact_memos()
        rng = random.Random(self.seed ^ 0x5EED)
        for w, s in rng.sample(pairs, VERIFY_PAIRS):
            run = run_experiment(w, s, prefetcher=PREFETCHER, records=RECORDS).run
            if (w, s) in results and scalars(run) != scalars(results[(w, s)]):
                self.fail(f"{w}/{s}: serial re-run differs from the sweep")

    # -- traced ----------------------------------------------------------------

    def _traced(self, iso, names, pairs, results, timed_wall: float) -> None:
        from repro.harness.runner import Runner

        iso.phase("traced")
        reset_artifact_memos()
        tracer = Tracer()
        runner = Runner(records=RECORDS, prefetcher=PREFETCHER)
        start = time.perf_counter()
        with tracer.patch(layer_targets()):
            for w in W10:
                name = names[w]
                with tracer.span("harness.context", request=name):
                    runner.context_for(name)
                for s in SCHEMES:
                    with tracer.span("harness.pair", request=f"{name}/{s}"):
                        run = runner.run(name, s)
                    if (name, s) in results and scalars(run) != scalars(results[(name, s)]):
                        self.fail(f"{name}/{s}: traced serial run differs from the sweep")
        traced_wall = time.perf_counter() - start

        self.layers.update(layer_metrics(tracer, traced_wall))
        self.layers.update(
            {
                "harness.timed_wall_s": timed_wall,
                "harness.parallel_efficiency": traced_wall / (JOBS * timed_wall),
            }
        )
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(WORK_DIR / f"spans.{self.workload}.seed{self.seed}.jsonl")
        self._attribute(runner, names[ATTRIBUTE_ON], results)

    def _attribute(self, runner, workload: str, results) -> None:
        """Untraced simulate, recorded simulate, timed replay per scheme."""
        from repro.frontend.plan import cached_plan
        from repro.harness.schemes import make_scheme
        from repro.uarch.timing import simulate

        ctx = runner.context_for(workload)
        trace = ctx.trace
        machine = runner.machine
        n = len(trace)
        plan = cached_plan(trace, machine, PREFETCHER)

        # The context may have been evicted and reloaded: do the one-off
        # list conversions now, so no scheme's timing pays for them.
        for owner, attrs in (
            (trace, ("blocks_list", "instrs_list", "branch_kind_list", "branch_site_list")),
            (plan, ("mispredict_list", "cand_lo_list", "cand_hi_list")),
        ):
            for attr in attrs:
                getattr(owner, attr)

        for s in SCHEMES:
            expected = results.get((workload, s))
            recording = RecordingScheme(make_scheme(s, ctx))
            recorded = simulate(trace, recording, machine=machine, plan=plan)
            recorded.workload = workload
            if expected is not None and scalars(recorded) != scalars(expected):
                self.fail(f"{workload}/{s}: recorded simulate differs from the sweep")
            # Best of ATTRIBUTION_REPEATS, simulate and replay alternating:
            # host noise only ever adds time.
            sim_s = replay_s = float("inf")
            for _ in range(ATTRIBUTION_REPEATS):
                scheme = make_scheme(s, ctx)
                start = time.perf_counter()
                run = simulate(trace, scheme, machine=machine, plan=plan)
                sim_s = min(sim_s, time.perf_counter() - start)
                run.workload = workload
                if scalars(run) != scalars(recorded):
                    self.fail(f"{workload}/{s}: untraced simulate differs")
                seconds, mismatches = replay(make_scheme(s, ctx), recording, trace)
                replay_s = min(replay_s, seconds)
                if mismatches:
                    self.fail(f"{workload}/{s}: {mismatches} replayed returns differ")
            prefix = "core.acic" if s == "acic" else f"mem.{s}"
            ops = len(recording)
            self.layers[f"uarch.ns_per_record.{s}"] = 1e9 * sim_s / n
            self.layers[f"uarch.engine_self_ns_per_record.{s}"] = 1e9 * (sim_s - replay_s) / n
            self.layers[f"{prefix}.ns_per_op"] = 1e9 * replay_s / ops
            self.layers[f"{prefix}.ops"] = ops
            self.layers[f"{prefix}.l1i_miss_ratio"] = run.miss_ratio
            if s == "acic":
                self.layers.update(acic_ratios(scheme))


def acic_ratios(scheme) -> Dict[str, float]:
    """Admission / i-Filter / CSHR ratios from ACIC's public counters."""
    stats, ifs, cshr = scheme.stats, scheme.ifilter.stats, scheme.cshr.stats
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "core.acic.admit_ratio": ratio(stats.victims_admitted, stats.victims_considered),
        "core.acic.ifilter_hit_ratio": ratio(ifs.hits, ifs.lookups),
        "core.acic.cshr_resolve_ratio": ratio(
            cshr.victim_resolutions + cshr.contender_resolutions, cshr.inserts
        ),
    }
