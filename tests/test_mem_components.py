"""Tests for hierarchy, MSHRs, victim cache and VVC."""

import pytest

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.mem.policies.lru import LRUPolicy
from repro.mem.victim import VictimCache
from repro.mem.vvc import DeadBlockPredictor, VirtualVictimCache


class TestHierarchy:
    def test_cold_access_goes_to_dram(self):
        h = MemoryHierarchy()
        assert h.access(1) == h.config.dram_latency
        assert h.stats.dram_fills == 1

    def test_second_access_hits_l2(self):
        h = MemoryHierarchy()
        h.access(1)
        assert h.access(1) == h.config.l2_latency
        assert h.stats.l2_hits == 1

    def test_l3_hit_after_l2_eviction(self):
        cfg = HierarchyConfig(l2_size_bytes=2 * 64 * 8, l2_ways=2)  # tiny L2
        h = MemoryHierarchy(cfg)
        h.access(0)
        # Blow out the 16-block L2 without evicting block 0 from L3.
        for b in range(1, 40):
            h.access(b)
        latency = h.access(0)
        assert latency == cfg.l3_latency

    def test_latency_ordering_enforced(self):
        with pytest.raises(ValueError):
            HierarchyConfig(l2_latency=50, l3_latency=35)

    def test_flat_levels_are_capacity_bounded(self):
        cfg = HierarchyConfig(
            l2_size_bytes=4 * 64, l3_size_bytes=8 * 64
        )  # 4-block L2, 8-block L3
        h = MemoryHierarchy(cfg)
        for b in range(20):
            h.access(b)
        assert not h.in_l2(0) and not h.in_l3(0)
        assert h.in_l2(19) and h.in_l3(19)
        assert h.resident_blocks() == cfg.l2_blocks + cfg.l3_blocks

    def test_lru_promotion_on_hit(self):
        cfg = HierarchyConfig(l2_size_bytes=2 * 64, l3_size_bytes=8 * 64)
        h = MemoryHierarchy(cfg)
        h.access(1)
        h.access(2)
        h.access(1)  # promote 1 to MRU in the 2-block L2
        h.access(3)  # evicts 2, not 1
        assert h.in_l2(1) and not h.in_l2(2)

    def test_nine_no_back_invalidate(self):
        """An L3 eviction leaves the L2 copy resident (NINE)."""
        cfg = HierarchyConfig(l2_size_bytes=4 * 64, l3_size_bytes=2 * 64)
        h = MemoryHierarchy(cfg)
        h.access(1)
        h.access(2)
        h.access(3)  # L3 evicts 1; L2 (4 blocks) still holds it
        assert not h.in_l3(1) and h.in_l2(1)
        assert h.access(1) == cfg.l2_latency

    def test_levels_must_hold_a_block(self):
        with pytest.raises(ValueError):
            HierarchyConfig(l2_size_bytes=32)


class TestMSHR:
    def test_allocate_and_drain(self):
        m = MSHRFile(4)
        m.allocate(1, ready_cycle=10, now=0)
        assert 1 in m
        assert m.drain(5) == []
        assert m.drain(10) == [1]
        assert 1 not in m

    def test_merge_duplicate(self):
        m = MSHRFile(4)
        first = m.allocate(1, 10, 0)
        second = m.allocate(1, 99, 5)
        assert first == second == 10
        assert m.stats.merges == 1

    def test_full_delays_new_miss(self):
        m = MSHRFile(1)
        m.allocate(1, 100, 0)
        ready = m.allocate(2, 150, 0)
        assert ready >= 150  # delayed by the occupied register
        assert m.stats.full_stalls == 1

    def test_cancel(self):
        m = MSHRFile(2)
        m.allocate(1, 10, 0)
        m.cancel(1)
        assert 1 not in m
        m.cancel(99)  # idempotent

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_full_handover_never_drops_the_displaced_fill(self):
        """The displaced earliest fill must still reach a later drain."""
        m = MSHRFile(1)
        m.allocate(1, 100, 0)
        m.allocate(2, 150, 0)  # displaces 1 into the deferred buffer
        assert 1 in m and 2 in m
        assert len(m) == 2
        assert m.drain(99) == []
        assert m.drain(100) == [1]
        assert m.drain(250) == [2]
        assert len(m) == 0

    def test_completed_fill_survives_allocate(self):
        """allocate must not drain-and-discard fills completed by now."""
        m = MSHRFile(4)
        m.allocate(1, 10, 0)
        m.allocate(2, 50, 20)  # now=20 > block 1's ready cycle
        assert 1 in m
        assert m.drain(20) == [1]

    def test_drain_orders_pending_before_deferred(self):
        m = MSHRFile(2)
        m.allocate(1, 10, 0)
        m.allocate(2, 11, 0)
        m.allocate(3, 12, 0)  # defers block 1 (earliest); 3 waits until 22
        assert m.drain(12) == [2, 1]
        assert m.drain(22) == [3]

    def test_merge_into_deferred_entry(self):
        m = MSHRFile(1)
        m.allocate(1, 100, 0)
        m.allocate(2, 150, 0)  # defers (1, 100)
        assert m.allocate(1, 999, 0) == 100  # merges, not re-issued
        assert m.stats.merges == 1

    def test_cancel_deferred_entry(self):
        m = MSHRFile(1)
        m.allocate(1, 100, 0)
        m.allocate(2, 150, 0)
        m.cancel(1)
        assert 1 not in m
        assert m.drain(1000) == [2]

    def test_next_ready_tracks_deferred(self):
        m = MSHRFile(1)
        m.allocate(1, 100, 0)
        m.allocate(2, 150, 0)  # deferred (1, 100) is the earliest fill
        assert m.next_ready <= 100
        assert m.drain(100) == [1]
        assert m.next_ready == 250  # block 2 delayed by the handover wait


class TestVictimCache:
    def test_probe_hit_removes(self):
        vc = VictimCache(size_bytes=2 * 64)
        vc.insert(1)
        assert vc.probe(1)
        assert not vc.probe(1)  # moved back to L1

    def test_capacity(self):
        vc = VictimCache(size_bytes=2 * 64)
        vc.insert(1)
        vc.insert(2)
        vc.insert(3)
        assert len(vc) == 2
        assert not vc.probe(1)  # LRU victim dropped

    def test_3kb_default_capacity(self):
        assert VictimCache().capacity == 48

    def test_too_small(self):
        with pytest.raises(ValueError):
            VictimCache(size_bytes=10)


class TestDeadBlockPredictor:
    def test_untouched_blocks_predicted_dead(self):
        p = DeadBlockPredictor()
        assert p.predict_dead(123)

    def test_eviction_without_reuse_trains_dead(self):
        p = DeadBlockPredictor(dead_threshold=1)
        p.on_access(5)
        trace = p._trace[5]
        p.on_evict(5)
        p.on_access(5)  # rebuilds same first-access trace signature
        assert p._trace[5] == trace
        assert p.predict_dead(5)

    def test_reuse_trains_live(self):
        p = DeadBlockPredictor(dead_threshold=1)
        # Train dead once, then observe reuse; counters move back down.
        p.on_access(5)
        p.on_evict(5)
        p.on_access(5)
        p.on_access(5)  # reuse trains live at the same indices
        assert not p.predict_dead(5) or p.dead_threshold > 1


class TestVirtualVictimCache:
    def make(self):
        cache = SetAssociativeCache(CacheConfig(4 * 64 * 4, 4), LRUPolicy())
        return cache, VirtualVictimCache(cache)

    def test_partner_set_flips_msb(self):
        cache, vvc = self.make()
        assert vvc.partner_set(0) == cache.config.num_sets // 2
        assert vvc.partner_set(cache.config.num_sets // 2) == 0

    def test_park_and_probe(self):
        cache, vvc = self.make()
        sets = cache.config.num_sets
        partner = vvc.partner_set(0)
        # Fill the partner set with (predicted-dead) lines.
        for i in range(4):
            cache.fill(partner + i * sets, 0)
        victim = 5 * sets  # home set 0... block id maps to set 0? no:
        victim = 0  # block 0 maps to set 0
        assert vvc.park_victim(victim, 0, 1)
        assert vvc.is_parked(victim)
        assert vvc.probe_virtual(victim)

    def test_promote_returns_home(self):
        cache, vvc = self.make()
        sets = cache.config.num_sets
        partner = vvc.partner_set(0)
        for i in range(4):
            cache.fill(partner + i * sets, 0)
        vvc.park_victim(0, 0, 1)
        vvc.probe_virtual(0)
        vvc.promote(0, 2)
        assert cache.contains(0)
        assert not vvc.is_parked(0)
