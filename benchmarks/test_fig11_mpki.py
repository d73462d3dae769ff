"""Figure 11: L1i MPKI reduction of every scheme over the FDP baseline.

The reproduction gap tracked here — ACIC recovers only ~6% of OPT's
MPKI reduction on the calibrated Table III traces, vs the paper's
55.85% — is guarded by a *ratchet* instead of an xfail: the committed
``profiles/found/RATCHET.json`` records the best share achieved so far,
and this bench asserts the grid never falls below it.  The
property-based workload search (``scripts/search_workloads.py``)
advances the ratchet by discovering trace structure where ACIC's
admission control matters more; its discoveries are committed under
``profiles/found/`` and re-scored below.
"""

import pytest

from bench_support import W10, once, reductions_for

from repro.harness.runner import Runner
from repro.harness.scoring import score_workload
from repro.harness.tables import reduction_table
from repro.workloads.profiles import get_workload
from repro.workloads.search.registry import (
    found_profiles_dir,
    load_found_entry,
    read_ratchet,
)
from test_fig10_speedup import SCHEMES


def test_fig11_mpki_reductions(benchmark, runner):
    def build():
        return reductions_for(runner, W10, SCHEMES)

    table, avgs = once(benchmark, build)
    print(
        "\n"
        + reduction_table(
            table,
            W10,
            SCHEMES,
            title="Figure 11: L1i MPKI reduction over LRU + FDP baseline",
            averages=avgs,
        )
    )
    # ACIC recovers a share of OPT's reduction (paper: 55.85%).
    share = avgs["acic"] / avgs["opt"] if avgs["opt"] else 0.0
    print(f"\nACIC achieves {100 * share:.1f}% of OPT's MPKI reduction")
    assert avgs["opt"] > 0
    assert avgs["acic"] > 0
    assert avgs["acic"] >= avgs["vvc"]
    ratchet = read_ratchet().get("fig11", {})
    floor = float(ratchet.get("share_floor", 0.0))
    assert floor > 0.0, "profiles/found/RATCHET.json must commit a fig11 floor"
    if runner.records == int(ratchet.get("records", 0)):
        # the ratchet: the calibrated grid's share must never regress
        # below the committed measurement (currently ~5.9%).
        assert share >= floor, (
            f"fig11 share {share:.4f} fell below the committed ratchet "
            f"floor {floor:.4f}"
        )
    else:
        # scaled runs (REPRO_SCALE) keep only the direction assertions.
        assert share > 0.0


def test_search_discoveries_reproduce_their_scores(benchmark):
    """Every committed search discovery re-scores exactly as recorded.

    The scenario registry's contract: a found profile is a permanent
    regression scenario, so re-simulating it at the recorded record
    count must reproduce the recorded ACIC-vs-OPT share bit-for-bit
    (same trace, same schemes, same machine).
    """
    paths = sorted(
        p for p in found_profiles_dir().glob("search-*.json")
    )
    assert paths, "the committed registry has at least one discovery"

    def rescore():
        cards = {}
        for path in paths:
            spec, payload = load_found_entry(path)
            recorded = payload["score"]
            runner = Runner(
                records=int(recorded["records"]),
                prefetcher=str(recorded["prefetcher"]),
            )
            profile = get_workload(spec.workload_name)
            assert profile == spec.build()
            cards[spec.workload_name] = (
                score_workload(runner, profile.name),
                recorded,
            )
        return cards

    cards = once(benchmark, rescore)
    best = float(read_ratchet().get("best_found", {}).get("share", 0.0))
    shares = []
    for name, (card, recorded) in cards.items():
        assert card.share == pytest.approx(float(recorded["share"]), abs=1e-12)
        assert card.baseline_mpki == pytest.approx(
            float(recorded["baseline_mpki"]), abs=1e-12
        )
        shares.append(card.share)
        print(
            f"{name}: share={card.share:.3f} "
            f"(acic {card.reductions['acic']:+.2f} / "
            f"opt {card.reductions['opt']:+.2f} MPKI)"
        )
    # the best-found ratchet is genuinely achieved by a committed profile
    assert best > 0.0
    assert max(shares) == pytest.approx(best, abs=1e-12)
