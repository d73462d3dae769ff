"""Simulator throughput microbenchmarks (true pytest-benchmark timing).

Not a paper artifact: measures the cost of simulating each major scheme
so regressions in the simulator itself are visible.
"""

import pytest

from repro.frontend.plan import cached_plan
from repro.harness.schemes import SchemeContext, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload

RECORDS = 20_000


@pytest.fixture(scope="module")
def bench_trace():
    return get_workload("media-streaming").trace(records=RECORDS)


@pytest.mark.parametrize("scheme_name", ["lru", "acic", "opt", "ghrp", "harmony"])
def test_simulation_throughput(benchmark, bench_trace, scheme_name):
    ctx = SchemeContext(trace=bench_trace)
    plan = cached_plan(bench_trace, DEFAULT_MACHINE, "fdp")

    def run_once():
        scheme = make_scheme(scheme_name, ctx)
        return simulate(bench_trace, scheme, machine=DEFAULT_MACHINE, plan=plan)

    result = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert result.accesses > 0
