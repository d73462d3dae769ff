"""Extra ablations: choices the paper fixes silently.

* Benefit-of-the-doubt direction for CSHR entries evicted unresolved —
  the paper trains them as victim-won; we compare against training them
  as contender-won and against not training at all.
* Frozen predictor (no CSHR training at all): shows the learning loop,
  not the initial counter values, is what produces the filtering.

These go beyond the paper's own ablation set (Figure 17); they document
which unspecified details the mechanism is sensitive to.
"""

from bench_support import once, speedups_for

from repro.harness.tables import format_table

VARIANTS = ("acic", "acic-bod-none", "acic-bod-contender", "acic-mru-cshr-off")
LABELS = {
    "acic": "paper default (benefit of doubt: victim)",
    "acic-bod-none": "unresolved entries train nothing",
    "acic-bod-contender": "benefit of doubt: contender",
    "acic-mru-cshr-off": "predictor frozen (no training)",
}
WORKLOADS = ("media-streaming", "data-caching", "neo4j-analytics", "web-serving")


def test_unresolved_policy_ablation(benchmark, runner):
    def build():
        _, gmeans = speedups_for(runner, WORKLOADS, VARIANTS)
        return gmeans

    gmeans = once(benchmark, build)
    rows = [[LABELS[v], gmeans[v]] for v in VARIANTS]
    print(
        "\n"
        + format_table(
            ["design choice", "gmean speedup"],
            rows,
            title="Extra ablation: CSHR benefit-of-the-doubt direction",
        )
    )
    # Giving the *contender* the benefit of the doubt floods the
    # predictor with drop-training and must not beat the paper default.
    assert gmeans["acic"] >= gmeans["acic-bod-contender"] - 0.0015
