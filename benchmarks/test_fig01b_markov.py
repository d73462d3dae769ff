"""Figure 1b: Markov chain of reuse distances (media streaming)."""

from bench_support import once

from repro.analysis.markov import reuse_markov_chain
from repro.harness.experiment import scaled_records
from repro.workloads.profiles import get_workload


def test_fig01b_markov_chain(benchmark):
    def build():
        trace = get_workload("media-streaming").trace(records=scaled_records())
        return reuse_markov_chain(trace.blocks, "media-streaming")

    chain = once(benchmark, build)
    print("\n" + chain.format())
    print(f"burstiness score (mass into 0/1-16): {chain.burstiness_score():.3f}")
    # The paper's point: transitions into the shortest-distance states
    # dominate — accesses are bursty.
    assert chain.self_transition("0") > 0.5
    assert chain.burstiness_score() > 0.6
