#!/usr/bin/env python3
"""Build a custom ACIC configuration and workload from the public API.

Shows the library as a research vehicle: define a synthetic program
shape, generate a trace, assemble an ACIC variant (bigger i-Filter,
instant updates, custom predictor geometry), and measure it against
the baseline — all without touching library internals.
"""

from __future__ import annotations

from repro.core.flat import FlatACICScheme
from repro.core.predictor import TwoLevelAdmissionPredictor
from repro.frontend.plan import cached_plan
from repro.harness.schemes import SchemeContext, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.generator import WalkParams, generate_trace
from repro.workloads.program import ProgramShape, build_program


def main() -> None:
    # 1. A custom workload: a chatty RPC server with a huge cold tail.
    shape = ProgramShape(
        hot_functions=48,
        hot_size=(4, 10),
        groups=4,
        handlers_per_group=24,
        handler_size=(8, 20),
        cold_functions=200,
        cold_size=(20, 40),
        call_prob=0.3,
    )
    walk = WalkParams(
        target_records=60_000,
        request_self_transition=0.4,
        phases=(10, 14),
        cold_phase_prob=0.45,
        regroup_prob=0.75,
        regroup_mean=4.0,
    )
    program = build_program(shape, seed=42)
    trace = generate_trace(program, walk, seed=43, name="custom-rpc")
    print(
        f"custom workload: {trace.unique_blocks} blocks "
        f"({trace.footprint_bytes // 1024} KB), {len(trace)} records"
    )

    # 2. A custom ACIC: 32-slot i-Filter, 8-bit history, instant updates.
    def my_acic():
        return FlatACICScheme(
            ifilter_slots=32,
            predictor=TwoLevelAdmissionPredictor(
                hrt_entries=2048, history_bits=8, update_mode="instant"
            ),
        )

    # 3. One FDP frontend plan (branch verdicts + run-ahead candidates),
    #    shared by every scheme measured on this trace.
    ctx = SchemeContext(trace=trace)
    plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
    results = {}
    for name, factory in (
        ("lru", lambda: make_scheme("lru", ctx)),
        ("acic (paper cfg)", lambda: make_scheme("acic", ctx)),
        ("acic (custom)", my_acic),
        ("opt", lambda: make_scheme("opt", ctx)),
    ):
        results[name] = simulate(
            trace, factory(), machine=DEFAULT_MACHINE, plan=plan
        )

    baseline = results["lru"]
    print(f"\n{'scheme':<18} {'MPKI':>7} {'speedup':>8}")
    for name, run in results.items():
        print(
            f"{name:<18} {run.mpki:>7.2f} {run.speedup_over(baseline):>8.4f}"
        )


if __name__ == "__main__":
    main()
