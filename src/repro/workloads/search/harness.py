"""The search driver behind ``scripts/search_workloads.py``.

One search run is a pure function of (space, seed, budget, records):
sample *i* of the deterministic sequence is drawn from its own
``(seed, i)``-derived RNG, and each sample is scored through the
caching Runner (three pairs — lru/acic/opt — keyed by the spec's
fingerprinted workload name, the prefetcher, the record count and the
machine fingerprint).  The result cache is the search's only resume
path: its entries are fsynced as they are written, so a re-run after
a kill finds the scored prefix warm instead of re-simulating it, and a
re-run with a *larger* budget extends the same sequence.  Without the
disk cache (``REPRO_NO_DISK_CACHE=1``) nothing survives the process
and a killed search re-simulates.

Winners (share of OPT's reduction recovered by ACIC at or above
``min_share``) are shrunk to minimal reproducing specs and optionally
persisted into the scenario registry, ratcheting the best-found share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.runner import Runner
from repro.harness.scoring import SCORE_SCHEMES, ScoreCard, score_profile
from repro.workloads.search.registry import (
    read_ratchet,
    save_found_profile,
    write_ratchet,
)
from repro.workloads.search.shrink import shrink_spec
from repro.workloads.search.strategies import FIG11_SPACE, ProfileSpec, get_space


@dataclass
class SearchConfig:
    """Arguments of one search run (mirrors the CLI)."""

    budget: int = 24
    seed: int = 0
    records: int = 20_000
    space: str = FIG11_SPACE.name
    #: A sample is a *winner* when ACIC recovers at least this share of
    #: OPT's MPKI reduction on its trace; winners get shrunk.  The
    #: shrink predicate re-uses the same bar, so a shrunk profile still
    #: reproduces the score direction that made its ancestor a winner.
    min_share: float = 0.10
    shrink: bool = True
    shrink_evaluations: int = 120
    top: int = 3
    save: bool = False
    update_ratchet: bool = False


@dataclass
class ShrinkRecord:
    """One winner's shrink outcome."""

    original: ProfileSpec
    original_card: ScoreCard
    spec: ProfileSpec
    card: ScoreCard
    steps: int
    evaluations: int


@dataclass
class SearchReport:
    """Everything a search run did (the CLI prints it; tests assert on it)."""

    config: SearchConfig
    samples: List[Tuple[ProfileSpec, ScoreCard]] = field(default_factory=list)
    simulated: int = 0
    replayed: int = 0
    winners: List[Tuple[ProfileSpec, ScoreCard]] = field(default_factory=list)
    shrunk: List[ShrinkRecord] = field(default_factory=list)
    saved: List[Path] = field(default_factory=list)
    ratchet: Optional[Dict[str, object]] = None

    @property
    def best(self) -> Optional[Tuple[ProfileSpec, ScoreCard]]:
        if not self.samples:
            return None
        return max(self.samples, key=lambda pair: pair[1].share)


def run_search(
    config: SearchConfig,
    runner: Optional[Runner] = None,
    log: Optional[Callable[[str], None]] = None,
) -> SearchReport:
    """Execute one (resumable, deterministic) search run.

    The default runner simulates ``config.records`` records with FDP on
    the default machine; pass ``runner`` for another prefetcher or
    machine.  A spec counts as ``replayed`` when the runner's caches
    already hold all three of its pairs, and as ``simulated`` otherwise.
    """
    say = log or (lambda message: None)
    space = get_space(config.space)
    if runner is None:
        runner = Runner(records=config.records)
    if runner.records != config.records:
        raise ValueError(
            f"runner simulates {runner.records} records, config wants "
            f"{config.records}"
        )
    report = SearchReport(config=config)

    def score(spec: ProfileSpec) -> ScoreCard:
        name = spec.workload_name
        if all(runner.cached(name, s) is not None for s in SCORE_SCHEMES):
            report.replayed += 1
        else:
            report.simulated += 1
        return score_profile(runner, spec.build())

    # -- sample --------------------------------------------------------------
    for index in range(config.budget):
        spec = space.sample(config.seed, index)
        card = score(spec)
        report.samples.append((spec, card))
        say(
            f"[{index + 1:>3}/{config.budget}] {spec.workload_name} "
            f"share={card.share:.3f} "
            f"(acic {card.reductions.get('acic', 0.0):+.2f} / "
            f"opt {card.reductions.get('opt', 0.0):+.2f} MPKI)"
        )

    # -- rank ----------------------------------------------------------------
    ranked = sorted(
        report.samples, key=lambda pair: pair[1].share, reverse=True
    )
    report.winners = [
        (spec, card)
        for spec, card in ranked[: config.top]
        if card.share >= config.min_share
    ]
    say(
        f"{len(report.winners)} winner(s) at share >= "
        f"{config.min_share:.2f} out of {config.budget} samples"
    )

    # -- shrink --------------------------------------------------------------
    if config.shrink:
        seen: set = set()
        for spec, card in report.winners:
            result = shrink_spec(
                spec,
                lambda s: score(s).share >= config.min_share,
                max_evaluations=config.shrink_evaluations,
            )
            final_card = score(result.spec)
            say(
                f"shrunk {spec.workload_name} -> "
                f"{result.spec.workload_name} in {result.steps} steps "
                f"({result.evaluations} evaluations), share "
                f"{card.share:.3f} -> {final_card.share:.3f}"
            )
            if result.spec.fingerprint in seen:
                continue
            seen.add(result.spec.fingerprint)
            report.shrunk.append(
                ShrinkRecord(
                    original=spec,
                    original_card=card,
                    spec=result.spec,
                    card=final_card,
                    steps=result.steps,
                    evaluations=result.evaluations,
                )
            )

    # -- persist -------------------------------------------------------------
    if config.save:
        for record in report.shrunk:
            path = save_found_profile(
                record.spec,
                score=record.card.to_jsonable(),
                provenance={
                    "space": config.space,
                    "seed": config.seed,
                    "budget": config.budget,
                    "min_share": config.min_share,
                    "shrunk_from": record.original.workload_name,
                    "shrink_steps": record.steps,
                },
            )
            report.saved.append(path)
            say(f"saved {path}")

    if config.update_ratchet and report.shrunk:
        best = max(report.shrunk, key=lambda record: record.card.share)
        ratchet = read_ratchet()
        current = ratchet.get("best_found", {})
        if best.card.share > float(current.get("share", 0.0)):
            ratchet["best_found"] = {
                "name": best.spec.workload_name,
                "share": best.card.share,
                "records": best.card.records,
                "prefetcher": best.card.prefetcher,
            }
            report.ratchet = ratchet
            write_ratchet(ratchet)
            say(
                f"ratchet: best_found -> {best.spec.workload_name} "
                f"share={best.card.share:.3f}"
            )

    return report
