"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.lru import LRUPolicy


def make_cache(size=8 * 1024, ways=8):
    return SetAssociativeCache(CacheConfig(size, ways, name="t"), LRUPolicy())


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(32 * 1024, 8)
        assert cfg.num_blocks == 512
        assert cfg.num_sets == 64
        assert cfg.set_index_bits == 6

    def test_36kb_9way_is_valid(self):
        cfg = CacheConfig(36 * 1024, 9)
        assert cfg.num_sets == 64

    def test_indivisible_size_raises(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 8)

    def test_non_power_of_two_sets_raises(self):
        with pytest.raises(ValueError):
            CacheConfig(3 * 64 * 8, 8)  # 3 sets

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            CacheConfig(-1, 8)


class TestLookupFill:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(42)
        c.fill(42)
        assert c.lookup(42)
        assert c.stats.demand_accesses == 2
        assert c.stats.demand_hits == 1

    def test_contains_has_no_side_effects(self):
        c = make_cache()
        c.fill(1)
        before = c.stats.demand_accesses
        assert c.contains(1)
        assert not c.contains(2)
        assert c.stats.demand_accesses == before

    def test_fill_already_present(self):
        c = make_cache()
        c.fill(1)
        result = c.fill(1)
        assert result.already_present
        assert not result.inserted

    def test_eviction_within_set(self):
        c = make_cache(size=2 * 64 * 4, ways=2)  # 4 sets, 2 ways
        sets = c.config.num_sets
        blocks = [0, sets, 2 * sets]  # all map to set 0
        c.fill(blocks[0])
        c.fill(blocks[1])
        result = c.fill(blocks[2])
        assert result.evicted == blocks[0]
        assert not c.contains(blocks[0])

    def test_lru_contender_none_when_free_ways(self):
        c = make_cache()
        assert c.lru_contender(0) is None

    def test_lru_contender_is_lru_line(self):
        c = make_cache(size=2 * 64 * 4, ways=2)
        sets = c.config.num_sets
        c.fill(0)
        c.fill(sets)
        assert c.lru_contender(2 * sets) == 0
        c.lookup(0)  # promote
        assert c.lru_contender(2 * sets) == sets

    def test_evict_block(self):
        c = make_cache()
        c.fill(7)
        assert c.evict_block(7)
        assert not c.contains(7)
        assert not c.evict_block(7)

    def test_prefetch_fill_counted_separately(self):
        c = make_cache()
        c.fill(1, prefetch=True)
        assert c.stats.prefetch_fills == 1
        assert c.stats.demand_fills == 0


class TestLRUSemantics:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=300))
    def test_hits_match_stack_distance_rule(self, accesses):
        """A W-way LRU set hits iff the stack distance is < W."""
        ways = 4
        c = SetAssociativeCache(CacheConfig(ways * 64, ways), LRUPolicy())
        # Single-set cache: every block maps to set 0 when num_sets == 1.
        assert c.config.num_sets == 1
        recency: list = []
        for block in accesses:
            expected_hit = block in recency[-ways:]
            hit = c.lookup(block)
            assert hit == expected_hit
            if not hit:
                c.fill(block)
            if block in recency:
                recency.remove(block)
            recency.append(block)

    def test_resident_blocks_bounded(self):
        c = make_cache(size=4 * 1024, ways=4)
        for b in range(1000):
            if not c.lookup(b):
                c.fill(b)
        assert c.resident_blocks() <= c.config.num_blocks
