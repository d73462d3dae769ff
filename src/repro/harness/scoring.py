"""Figure 11 scoring entry point: the objective the workload search optimizes.

The paper's headline correctness claim (Fig 11) is *relative*: of the
MPKI reduction the OPT oracle achieves over the LRU+FDP baseline, what
share does ACIC's admission predictor recover?  ``score_workload``
computes that share for one workload through the ordinary caching
:class:`~repro.harness.runner.Runner` — so scoring a search candidate
costs three cached pairs (lru / acic / opt) keyed by the candidate's
fingerprinted workload name, and re-scoring anywhere (another process,
CI, the ratchet bench) is warm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.harness.runner import Runner
from repro.workloads.profiles import (
    WorkloadProfile,
    forget_walk,
    register_workload,
)

#: The pairs one Fig 11 score needs: the baseline plus the two schemes
#: whose reduction ratio is the objective.
SCORE_SCHEMES: Tuple[str, ...] = ("lru", "acic", "opt")


@dataclass(frozen=True)
class ScoreCard:
    """One workload's Figure 11 measurement."""

    workload: str
    records: int
    prefetcher: str
    baseline_mpki: float
    reductions: Dict[str, float] = field(hash=False)
    share: float = 0.0

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "records": self.records,
            "prefetcher": self.prefetcher,
            "baseline_mpki": self.baseline_mpki,
            "reductions": dict(self.reductions),
            "share": self.share,
        }


def acic_share_of_opt(reductions: Dict[str, float]) -> float:
    """ACIC's share of OPT's MPKI reduction; 0 when OPT has no headroom.

    A candidate where the oracle itself cannot reduce misses carries no
    signal about admission control — scoring it 0 (rather than a
    division blow-up, or rewarding a negative/negative ratio) makes the
    search objective monotone in "ACIC recovers real headroom".
    """
    opt = reductions.get("opt", 0.0)
    acic = reductions.get("acic", 0.0)
    if opt <= 0.0:
        return 0.0
    return max(0.0, acic) / opt


def score_workload(runner: Runner, workload: str) -> ScoreCard:
    """Score one (already resolvable) workload name on ``runner``'s grid."""
    baseline = runner.run(workload, "lru")
    reductions = {
        scheme: runner.mpki_reduction(workload, scheme)
        for scheme in SCORE_SCHEMES
        if scheme != "lru"
    }
    return ScoreCard(
        workload=workload,
        records=runner.records,
        prefetcher=runner.prefetcher,
        baseline_mpki=baseline.mpki,
        reductions=reductions,
        share=acic_share_of_opt(reductions),
    )


def score_profile(runner: Runner, profile: WorkloadProfile) -> ScoreCard:
    """Register ``profile`` for this process and score it.

    Registration is what lets the whole Runner/sweep machinery (and its
    fingerprint-keyed caches) treat a search candidate exactly like a
    tracked workload.  A candidate is scored at one length, so its walk
    is dropped once scored (each holds a program of a few MB).
    """
    register_workload(profile)
    try:
        return score_workload(runner, profile.name)
    finally:
        forget_walk(profile)


def average_share(
    runner: Runner, workloads: Sequence[str]
) -> Tuple[float, Dict[str, ScoreCard]]:
    """(grid share, per-workload cards) for a fixed workload grid.

    The grid share is the ratio of *average* reductions — matching how
    ``benchmarks/test_fig11_mpki.py`` aggregates the paper's ten
    datacenter applications — not the average of per-workload shares.
    """
    cards = {w: score_workload(runner, w) for w in workloads}
    n = len(cards) or 1
    avg = {
        scheme: sum(c.reductions[scheme] for c in cards.values()) / n
        for scheme in SCORE_SCHEMES
        if scheme != "lru"
    }
    return acic_share_of_opt(avg), cards
