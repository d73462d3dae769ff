"""Replacement-policy tests: shared invariants plus per-policy behaviour."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NextUseOracle
from repro.mem.policies import (
    BeladyOPTPolicy,
    GHRPPolicy,
    HawkeyePolicy,
    LRUPolicy,
    SHiPPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
)

WAYS = 4
CONFIG = CacheConfig(WAYS * 64 * 8, WAYS, name="t")  # 8 sets


def policy_factories(trace=None):
    oracle = NextUseOracle(trace if trace is not None else [0])
    return {
        "lru": lambda: LRUPolicy(),
        "plru": lambda: TreePLRUPolicy(WAYS),
        "srrip": lambda: SRRIPPolicy(),
        "ship": lambda: SHiPPolicy(),
        "hawkeye": lambda: HawkeyePolicy(ways=WAYS),
        "ghrp": lambda: GHRPPolicy(),
        "opt": lambda: BeladyOPTPolicy(oracle, allow_bypass=False),
    }


@pytest.fixture(scope="module")
def random_trace():
    rng = random.Random(7)
    return [rng.randrange(120) for _ in range(6000)]


@pytest.mark.parametrize("name", list(policy_factories()))
def test_policy_runs_and_respects_capacity(name, random_trace):
    factory = policy_factories(random_trace)[name]
    cache = SetAssociativeCache(CONFIG, factory())
    for t, block in enumerate(random_trace):
        if not cache.lookup(block, t):
            cache.fill(block, t)
        assert cache.resident_blocks() <= CONFIG.num_blocks
    assert cache.stats.demand_accesses == len(random_trace)
    assert cache.stats.demand_hits > 0


class TestSRRIP:
    def test_insert_rrpv_is_long(self):
        p = SRRIPPolicy(rrpv_bits=2)
        p.on_fill(0, 1, 0, prefetch=False)
        assert p._rrpv[0][1] == 2

    def test_prefetch_inserted_distant(self):
        p = SRRIPPolicy(rrpv_bits=2)
        p.on_fill(0, 1, 0, prefetch=True)
        assert p._rrpv[0][1] == 3

    def test_hit_promotes_to_zero(self):
        p = SRRIPPolicy()
        p.on_fill(0, 1, 0, False)
        p.on_hit(0, 1, 1)
        assert p._rrpv[0][1] == 0

    def test_victim_prefers_distant(self):
        p = SRRIPPolicy()
        p.on_fill(0, 1, 0, False)
        p.on_fill(0, 2, 0, True)  # distant
        assert p.victim(0, [1, 2], 3, 1) == 2

    def test_aging_when_no_distant_line(self):
        p = SRRIPPolicy()
        p.on_fill(0, 1, 0, False)
        p.on_hit(0, 1, 0)
        victim = p.victim(0, [1], 2, 1)
        assert victim == 1  # aged up to distant eventually


class TestSHiP:
    def test_shct_learns_reuse(self):
        p = SHiPPolicy()
        sig = p._signature(77)
        p.on_fill(0, 77, 0, False)
        p.on_hit(0, 77, 1)
        assert p.shct[sig] == 1

    def test_no_reuse_trains_down(self):
        p = SHiPPolicy()
        sig = p._signature(77)
        p.shct[sig] = 2
        p.on_fill(0, 77, 0, False)
        p.on_evict(0, 77, 5)
        assert p.shct[sig] == 1

    def test_dead_signature_inserted_distant(self):
        p = SHiPPolicy()
        sig = p._signature(42)
        p.shct[sig] = 0
        p.on_fill(0, 42, 0, False)
        assert p._rrpv[42] == p.rrpv_max


class TestGHRP:
    def test_eviction_without_reuse_trains_dead(self):
        p = GHRPPolicy()
        p.on_fill(0, 5, 0, False)
        indices = p._line_indices[5]
        p.on_evict(0, 5, 1)
        assert sum(t[i] for t, i in zip(p.tables, indices)) > 0

    def test_reuse_trains_live(self):
        p = GHRPPolicy()
        p.on_fill(0, 5, 0, False)
        indices = p._line_indices[5]
        for table, i in zip(p.tables, indices):
            table[i] = 2
        p.on_hit(0, 5, 1)  # reuse: previous touch trained live
        assert sum(t[i] for t, i in zip(p.tables, indices)) < 6

    def test_regional_signature(self):
        p = GHRPPolicy()
        assert p._signature(0) == p._signature(15)  # same 16-block region
        assert p._signature(0) != p._signature(16)

    def test_victim_prefers_predicted_dead(self):
        p = GHRPPolicy(dead_threshold=0)  # everything predicted dead
        p.on_fill(0, 1, 0, False)
        p.on_fill(0, 2, 0, False)
        assert p.victim(0, [1, 2], 3, 1) == 1  # stalest dead line


class TestBeladyOPT:
    def test_evicts_furthest_next_use(self):
        trace = [1, 2, 3, 1, 2, 3]
        oracle = NextUseOracle(trace)
        p = BeladyOPTPolicy(oracle, allow_bypass=False)
        p.on_fill(0, 1, 0, False)
        p.on_fill(0, 2, 1, False)
        p.on_fill(0, 3, 2, False)
        # At t=2: next uses are 1->3, 2->4, 3->5; furthest is block 3.
        assert p.victim(0, [1, 2, 3], 9, 2) == 3

    def test_bypass_when_incoming_is_worst(self):
        trace = [1, 2, 9, 1, 2]
        oracle = NextUseOracle(trace)
        p = BeladyOPTPolicy(oracle, allow_bypass=True)
        p.on_fill(0, 1, 0, False)
        p.on_fill(0, 2, 1, False)
        # Incoming 9 is never reused: bypass.
        assert p.victim(0, [1, 2], 9, 2) is None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=50, max_size=400))
    def test_opt_never_worse_than_lru(self, accesses):
        """Belady's algorithm is optimal: at least as many hits as LRU."""
        cfg = CacheConfig(4 * 64, 4)  # 1 set, 4 ways
        oracle = NextUseOracle(accesses)
        opt_cache = SetAssociativeCache(cfg, BeladyOPTPolicy(oracle, allow_bypass=True))
        lru_cache = SetAssociativeCache(cfg, LRUPolicy())
        for t, block in enumerate(accesses):
            if not opt_cache.lookup(block, t):
                opt_cache.fill(block, t)
            if not lru_cache.lookup(block, t):
                lru_cache.fill(block, t)
        assert opt_cache.stats.demand_hits >= lru_cache.stats.demand_hits


class TestHawkeye:
    def test_optgen_hit_when_capacity_available(self):
        from repro.mem.policies.hawkeye import _OPTgen

        gen = _OPTgen(capacity=2, window=8)
        t0 = gen.advance()
        gen.advance()
        assert gen.opt_would_hit(t0)

    def test_optgen_miss_when_interval_full(self):
        from repro.mem.policies.hawkeye import _OPTgen

        gen = _OPTgen(capacity=1, window=8)
        t0 = gen.advance()
        gen.advance()
        assert gen.opt_would_hit(t0)      # charges the interval
        assert not gen.opt_would_hit(t0)  # now full

    def test_optgen_window_expiry(self):
        from repro.mem.policies.hawkeye import _OPTgen

        gen = _OPTgen(capacity=4, window=4)
        t0 = gen.advance()
        for _ in range(5):
            gen.advance()
        assert not gen.opt_would_hit(t0)


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRUPolicy(3)

    def test_victim_avoids_recent(self):
        p = TreePLRUPolicy(2)
        p.on_fill(0, 10, 0, False)
        p.on_fill(0, 11, 1, False)
        p.on_hit(0, 10, 2)
        assert p.victim(0, [10, 11], 12, 3) == 11
