"""Tests for the ACIC core: i-Filter, CSHR, predictors, controller."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import partial_tag
from repro.core.ifilter import IFilter
from repro.core.predictor import (
    AlwaysAdmitPredictor,
    BimodalAdmissionPredictor,
    GlobalHistoryAdmissionPredictor,
    TwoLevelAdmissionPredictor,
)
from repro.mem.cache import CacheConfig
from repro.mem.oracle import NextUseOracle
from reference.acic import CSHR, ACICScheme


class TestIFilter:
    def test_fill_until_full_no_victim(self):
        f = IFilter(slots=4)
        for b in range(4):
            assert f.fill(b) is None
        assert len(f) == 4

    def test_victim_is_lru(self):
        f = IFilter(slots=2)
        f.fill(1)
        f.fill(2)
        assert f.fill(3) == 1

    def test_lookup_promotes(self):
        f = IFilter(slots=2)
        f.fill(1)
        f.fill(2)
        f.lookup(1)
        assert f.fill(3) == 2

    def test_stats(self):
        f = IFilter(slots=1)
        f.lookup(5)
        f.fill(5)
        f.fill(6)
        assert f.stats.lookups == 1
        assert f.stats.hits == 0
        assert f.stats.fills == 2
        assert f.stats.victims == 1

    def test_remove(self):
        f = IFilter(slots=2)
        f.fill(1)
        assert f.remove(1)
        assert not f.remove(1)

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            IFilter(0)


class TestCSHR:
    def make(self):
        return CSHR(entries=32, sets=4, tag_bits=12, icache_set_bits=6)

    def test_set_mapping_uses_msbs(self):
        c = self.make()
        # 4 CSHR sets from 6 i-cache set bits: top 2 bits select.
        assert c.set_for(0b000000) == 0
        assert c.set_for(0b010000) == 1
        assert c.set_for(0b110000) == 3

    def test_insert_and_victim_resolution(self):
        c = self.make()
        c.insert(victim_block=100 * 64, contender_block=200 * 64, icache_set=0)
        victim_match, contenders = c.search(100 * 64, icache_set=0)
        assert victim_match is not None
        assert contenders == []
        # Entry invalidated after resolution.
        assert c.search(100 * 64, 0) == (None, [])

    def test_contender_resolution(self):
        c = self.make()
        c.insert(100 * 64, 200 * 64, icache_set=0)
        victim_match, contenders = c.search(200 * 64, icache_set=0)
        assert victim_match is None
        assert len(contenders) == 1

    def test_multiple_contender_matches(self):
        c = self.make()
        c.insert(100 * 64, 300 * 64, icache_set=0)
        c.insert(200 * 64, 300 * 64, icache_set=0)
        _, contenders = c.search(300 * 64, icache_set=0)
        assert len(contenders) == 2

    def test_at_most_one_victim_match(self):
        c = self.make()
        c.insert(100 * 64, 300 * 64, icache_set=0)
        c.insert(100 * 64, 400 * 64, icache_set=0)
        victim_match, _ = c.search(100 * 64, icache_set=0)
        assert victim_match is not None
        # The second entry remains (only one victim match per search).
        assert c.occupancy() == 1

    def test_unresolved_eviction_returned(self):
        c = CSHR(entries=4, sets=4, tag_bits=12, icache_set_bits=6)  # 1 way
        first = c.insert(100 * 64, 200 * 64, icache_set=0)
        assert first is None
        evicted = c.insert(300 * 64, 400 * 64, icache_set=0)
        assert evicted is not None
        assert evicted.victim_tag == c.tag_of(100 * 64)
        assert c.stats.unresolved_evictions == 1

    def test_regional_match(self):
        """Blocks of the same 4KB region resolve each other's entries."""
        c = self.make()
        victim = 64 * 64  # region boundary
        c.insert(victim, 999 * 64, icache_set=0)
        neighbour = victim + 1  # same region, same partial tag
        # Same region but different i-cache set: CSHR set chosen by the
        # *fetched block's* set index; keep sets aligned for the match.
        match, _ = c.search(neighbour, icache_set=c.set_for(0) and 0)
        assert match is not None

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CSHR(entries=30, sets=4)
        with pytest.raises(ValueError):
            CSHR(entries=256, sets=256, icache_set_bits=6)


class TestTwoLevelPredictor:
    def test_learns_all_wins_pattern(self):
        p = TwoLevelAdmissionPredictor(update_mode="instant")
        tag = 0x123
        for _ in range(40):
            p.train(tag, True)
        assert p.predict(tag)

    def test_learns_all_losses_pattern(self):
        p = TwoLevelAdmissionPredictor(update_mode="instant")
        tag = 0x123
        for _ in range(40):
            p.train(tag, False)
        assert not p.predict(tag)

    def test_learns_alternating_pattern(self):
        """Two-level structure can track per-pattern outcomes."""
        p = TwoLevelAdmissionPredictor(update_mode="instant")
        tag = 0x77
        outcome = True
        for _ in range(200):
            p.train(tag, outcome)
            outcome = not outcome
        # After pattern 1010 the next outcome is 1; after 0101 it's 0.
        correct = 0
        for _ in range(20):
            if p.predict(tag) == outcome:
                correct += 1
            p.train(tag, outcome)
            outcome = not outcome
        assert correct >= 16

    def test_parallel_update_is_delayed(self):
        p = TwoLevelAdmissionPredictor(update_mode="parallel", update_latency=2)
        tag = 0x9
        history = p.hrt[p._hrt_index(tag)]
        before = p.pt[history]
        p.train(tag, True, now=100)
        assert p.pt[history] == before       # not yet visible
        p.predict(tag, now=103)              # drains the queue
        assert p.pt[history] == before + 1

    def test_instant_update_is_immediate(self):
        p = TwoLevelAdmissionPredictor(update_mode="instant")
        tag = 0x9
        history = p.hrt[p._hrt_index(tag)]
        before = p.pt[history]
        p.train(tag, True, now=100)
        assert p.pt[history] == before + 1

    def test_queue_overflow_drops(self):
        p = TwoLevelAdmissionPredictor(
            update_mode="parallel", queue_slots=2, update_latency=1000
        )
        tag = 0x9
        # After 4 identical outcomes the history saturates at 1111, so
        # every later training targets the same PT queue, which never
        # drains (far-future ready) and must overflow.
        for _ in range(10):
            p.train(tag, True, now=0)
        assert p.stats.queue_drops > 0

    def test_history_shifts_after_training(self):
        p = TwoLevelAdmissionPredictor(update_mode="instant", history_bits=4)
        tag = 0x55
        idx = p._hrt_index(tag)
        p.train(tag, True)
        p.train(tag, False)
        assert p.hrt[idx] == 0b10

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TwoLevelAdmissionPredictor(update_mode="bogus")
        with pytest.raises(ValueError):
            TwoLevelAdmissionPredictor(hrt_entries=1000)

    @given(st.lists(st.booleans(), max_size=200))
    def test_counters_bounded(self, outcomes):
        p = TwoLevelAdmissionPredictor(update_mode="instant")
        for o in outcomes:
            p.train(0x1, o)
        assert all(0 <= v <= p.counter_max for v in p.pt)


def _walk_all_queues(p, now):
    """The ungated drain: walk every PT queue, apply what is due by ``now``."""
    for idx, queue in enumerate(p._queues):
        while queue and queue[0][0] <= now:
            _, up = queue.popleft()
            if up:
                p.pt[idx] = min(p.pt[idx] + 1, p.counter_max)
            else:
                p.pt[idx] = max(p.pt[idx] - 1, 0)


class TestGatedQueueDrain:
    """``predict`` drains only once the earliest queue head is due, and
    that matches walking all 16 queues on every prediction."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_walk_at_random_now(self, seed):
        rng = random.Random(seed)
        gated = TwoLevelAdmissionPredictor(queue_slots=4, update_latency=3)
        full = TwoLevelAdmissionPredictor(queue_slots=4, update_latency=3)
        refills = 0
        now = 0
        for step in range(3000):
            # Bursts of training, quiet gaps and an occasional step back
            # in time (callers need not be monotonic).
            now = max(0, now + rng.choice((0, 1, 1, 2, 5, 40, -6)))
            tag = rng.randrange(64)
            if rng.random() < 0.5:
                won = rng.random() < 0.6
                emptied = [not q for q in full._queues]
                gated.train(tag, won, now)
                full.train(tag, won, now)
                refills += sum(
                    1 for was_empty, q in zip(emptied, full._queues)
                    if was_empty and q
                )
            else:
                _walk_all_queues(full, now)
                want = full.pt[full.hrt[full._hrt_index(tag)]] >= full.threshold
                assert gated.predict(tag, now) == want, step
                assert gated.pt == full.pt, step
                assert [list(q) for q in gated._queues] == [
                    list(q) for q in full._queues
                ], step
        assert refills > 100, "queues never refilled after draining"

    def test_next_due_survives_checkpoint(self):
        p = TwoLevelAdmissionPredictor(update_latency=5)
        for now, tag in enumerate((1, 2, 3, 1)):
            p.train(tag, True, now)
        state = p.save_state()
        q = TwoLevelAdmissionPredictor(update_latency=5)
        q.load_state(state)
        assert q._next_due == p._next_due == 5
        q.predict(9, now=4)
        assert q.pt == p.pt  # nothing due yet
        q.predict(9, now=100)
        assert not any(q._queues) and q._next_due == float("inf")


class TestPredictorVariants:
    def test_global_history_shared_across_tags(self):
        p = GlobalHistoryAdmissionPredictor()
        for _ in range(40):
            p.train(0x1, False)
        # A different tag sees the same (global) drop-leaning state.
        assert not p.predict(0x2)

    def test_bimodal_is_per_tag(self):
        p = BimodalAdmissionPredictor()
        for _ in range(40):
            p.train(0x1, False)
        assert not p.predict(0x1)
        assert p.predict(0x777)  # untouched tag keeps default admit

    def test_always_admit(self):
        p = AlwaysAdmitPredictor()
        assert p.predict(0x1)
        p.train(0x1, False)
        assert p.predict(0x1)


class TestACICController:
    CFG = CacheConfig(4 * 64 * 8, 4, name="t")  # 8 sets, 4 ways

    def test_miss_fills_ifilter_not_icache(self):
        acic = ACICScheme(self.CFG)
        assert not acic.lookup(1, 0, 0)
        acic.fill(1, 0, 0)
        assert 1 in acic.ifilter
        assert not acic.icache.contains(1)

    def test_ifilter_eviction_free_way_fill(self):
        acic = ACICScheme(self.CFG, ifilter_slots=2)
        for t, b in enumerate([0, 8, 16]):  # distinct blocks, set 0
            acic.lookup(b, t, t)
            acic.fill(b, t, t)
        # Victim (block 0) found a free i-cache way: direct fill.
        assert acic.icache.contains(0)
        assert acic.stats.free_way_fills == 1

    def _fill_set_zero(self, acic, start_t=0):
        """Fill i-cache set 0 completely via free-way path."""
        sets = acic.config.num_sets
        t = start_t
        for i in range(acic.config.ways):
            block = (100 + i) * sets  # all map to set 0
            acic.ifilter.fill(block)
            acic._admission_decision(block, t, t)
            t += 1
        return t

    def test_admission_decision_opens_cshr_entry(self):
        acic = ACICScheme(self.CFG, always_insert=True, ifilter_slots=2)
        t = self._fill_set_zero(acic)
        before = acic.cshr.stats.inserts
        acic._admission_decision(500 * acic.config.num_sets, t, t)
        assert acic.cshr.stats.inserts == before + 1
        assert acic.stats.victims_considered == 1

    def test_always_insert_replaces_contender(self):
        acic = ACICScheme(self.CFG, always_insert=True)
        t = self._fill_set_zero(acic)
        sets = acic.config.num_sets
        contender = acic.icache.lru_contender(500 * sets)
        acic._admission_decision(500 * sets, t, t)
        assert acic.icache.contains(500 * sets)
        assert not acic.icache.contains(contender)

    def test_victim_resolution_trains_predictor(self):
        acic = ACICScheme(self.CFG, always_insert=True)
        t = self._fill_set_zero(acic)
        sets = acic.config.num_sets
        victim = 500 * sets
        acic._admission_decision(victim, t, t)
        trained_before = acic.predictor.stats.trainings
        acic.lookup(victim, t + 1, t + 1)  # resolves: victim won
        assert acic.predictor.stats.trainings == trained_before + 1

    def test_no_filter_mode(self):
        acic = ACICScheme(self.CFG, use_ifilter=False, always_insert=True)
        assert acic.ifilter is None
        acic.lookup(1, 0, 0)
        acic.fill(1, 0, 0)
        assert acic.icache.contains(1)

    def test_audit_records_decisions(self):
        trace = [0, 8, 16, 24, 32, 0]
        oracle = NextUseOracle(trace)
        acic = ACICScheme(self.CFG, audit_oracle=oracle, always_insert=True)
        t = self._fill_set_zero(acic)
        acic._admission_decision(500 * acic.config.num_sets, t, t)
        assert len(acic.audit) == 1

    def test_contains_checks_both_structures(self):
        acic = ACICScheme(self.CFG)
        acic.fill(1, 0, 0)
        assert acic.contains(1)
        acic.icache.fill(2, 0)
        assert acic.contains(2)
        assert not acic.contains(3)


class TestAdmissionAudit:
    def test_accuracy_excludes_ties_and_far_pairs(self):
        from repro.core.flat import AdmissionAudit

        audit = AdmissionAudit()
        # Correct admit: victim sooner.
        audit.admitted.append(True)
        audit.victim_distance.append(10)
        audit.contender_distance.append(100)
        # Wrong admit: victim later.
        audit.admitted.append(True)
        audit.victim_distance.append(100)
        audit.contender_distance.append(10)
        # Tie: excluded.
        audit.admitted.append(True)
        audit.victim_distance.append(5)
        audit.contender_distance.append(5)
        assert audit.accuracy() == pytest.approx(0.5)
        # Cap excludes the pair whose min distance is >= 50.
        assert audit.accuracy(distance_cap=50) == pytest.approx(0.5)
        assert audit.accuracy(distance_cap=11) == pytest.approx(0.5)


class TestUnresolvedPolicy:
    CFG = CacheConfig(4 * 64 * 8, 4, name="t")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="unresolved_policy"):
            ACICScheme(self.CFG, unresolved_policy="bogus")

    @pytest.mark.parametrize("policy,expected_direction", [
        ("victim", True),
        ("contender", False),
    ])
    def test_unresolved_eviction_trains_direction(self, policy, expected_direction):

        trained = []

        class SpyPredictor(AlwaysAdmitPredictor):
            def train(self, ptag, won, now=0):
                trained.append(won)

        acic = ACICScheme(
            self.CFG,
            predictor=SpyPredictor(),
            cshr=CSHR(entries=8, sets=8, icache_set_bits=3),  # 1 way/set
            unresolved_policy=policy,
        )
        sets = acic.config.num_sets
        for i in range(acic.config.ways):
            acic.ifilter.fill((100 + i) * sets)
            acic._admission_decision((100 + i) * sets, i, i)
        t = acic.config.ways
        acic._admission_decision(500 * sets, t, t)       # opens entry
        acic._admission_decision(600 * sets, t + 1, t + 1)  # evicts it unresolved
        assert expected_direction in trained

    def test_none_policy_skips_training(self):

        trained = []

        class SpyPredictor(AlwaysAdmitPredictor):
            def train(self, ptag, won, now=0):
                trained.append(won)

        acic = ACICScheme(
            self.CFG,
            predictor=SpyPredictor(),
            cshr=CSHR(entries=8, sets=8, icache_set_bits=3),
            unresolved_policy="none",
        )
        sets = acic.config.num_sets
        for i in range(acic.config.ways):
            acic.ifilter.fill((100 + i) * sets)
            acic._admission_decision((100 + i) * sets, i, i)
        t = acic.config.ways
        acic._admission_decision(500 * sets, t, t)
        acic._admission_decision(600 * sets, t + 1, t + 1)
        assert trained == []
