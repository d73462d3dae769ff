"""Property-style differential tests for ``SetAssociativeCache``.

Every replacement policy in ``repro.mem.policies``, and the readable
GHRP, Hawkeye and Belady-OPT references of :mod:`reference.policies`,
is driven through randomized, seeded op sequences on both the
production cache and a brute-force reference cache (plain per-set
lists, linear scans).  The two caches own *separately constructed but
identically configured* policy instances; because every policy is
deterministic given its call sequence, the pair must stay in lockstep:

* identical set contents in identical recency order after every op,
* identical lookup verdicts, fill outcomes (inserted / evicted /
  bypassed / already-present) and ``lru_contender`` answers,
* identical stats counters,

plus the structural invariants the tag array must never violate
(occupancy bound, no duplicates, blocks resident only in their home
set).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NextUseOracle
from repro.mem.policies import LRUPolicy, SHiPPolicy, SRRIPPolicy, TreePLRUPolicy
from reference.policies import BeladyOPTPolicy, GHRPPolicy, HawkeyePolicy

#: Small geometry so sets fill and evict constantly: 4 sets x 2 ways.
CONFIG = CacheConfig(4 * 2 * 64, 2, name="prop")

#: Policy factories; each test builds two instances per run, one for
#: the production cache and one for the reference (identical state
#: evolution requires identical construction).
POLICY_FACTORIES = {
    "lru": lambda oracle: LRUPolicy(),
    "plru": lambda oracle: TreePLRUPolicy(CONFIG.ways),
    "srrip": lambda oracle: SRRIPPolicy(),
    "ship": lambda oracle: SHiPPolicy(),
    "hawkeye": lambda oracle: HawkeyePolicy(ways=CONFIG.ways),
    "ghrp": lambda oracle: GHRPPolicy(),
    "belady": lambda oracle: BeladyOPTPolicy(oracle),
}

#: Policies safe to drive with arbitrary (non-trace) op soups; Belady
#: needs ``t`` to be the actual trace position of each access.
SOUP_POLICIES = sorted(set(POLICY_FACTORIES) - {"belady"})


class ReferenceCache:
    """Brute-force mirror of ``SetAssociativeCache`` semantics."""

    def __init__(self, config: CacheConfig, policy) -> None:
        self.config = config
        self.policy = policy
        self.sets = [[] for _ in range(config.num_sets)]  # LRU -> MRU
        self.demand_accesses = 0
        self.demand_hits = 0
        self.demand_fills = 0
        self.prefetch_fills = 0
        self.evictions = 0
        self.bypasses = 0

    def _set(self, block):
        return block % self.config.num_sets

    def lookup(self, block, t=0):
        self.demand_accesses += 1
        lines = self.sets[self._set(block)]
        if block not in lines:
            return False
        lines.remove(block)
        lines.append(block)
        self.demand_hits += 1
        if not self.policy.trivial_on_hit:
            self.policy.on_hit(self._set(block), block, t)
        return True

    def contains(self, block):
        return block in self.sets[self._set(block)]

    def fill(self, block, t=0, prefetch=False):
        s = self._set(block)
        lines = self.sets[s]
        if block in lines:
            lines.remove(block)
            lines.append(block)
            return ("already_present", None)
        evicted = None
        if len(lines) >= self.config.ways:
            victim = self.policy.victim(s, list(lines), block, t)
            if victim is None:
                self.bypasses += 1
                return ("bypassed", None)
            assert victim in lines, "policy chose a non-resident victim"
            lines.remove(victim)
            self.policy.on_evict(s, victim, t)
            self.evictions += 1
            evicted = victim
        lines.append(block)
        self.policy.on_fill(s, block, t, prefetch)
        if prefetch:
            self.prefetch_fills += 1
        else:
            self.demand_fills += 1
        return ("inserted", evicted)

    def evict_block(self, block, t=0):
        s = self._set(block)
        if block not in self.sets[s]:
            return False
        self.sets[s].remove(block)
        self.policy.on_evict(s, block, t)
        self.evictions += 1
        return True

    def lru_contender(self, block):
        lines = self.sets[self._set(block)]
        if len(lines) < self.config.ways:
            return None
        return lines[0]


def _assert_lockstep(prod: SetAssociativeCache, ref: ReferenceCache) -> None:
    for s in range(prod.config.num_sets):
        contents = prod.set_contents(s)
        assert contents == ref.sets[s], f"set {s} diverged"
        # Structural invariants of the tag array itself.
        assert len(contents) <= prod.config.ways
        assert len(set(contents)) == len(contents), "duplicate lines"
        assert all(prod.set_index(b) == s for b in contents)
    ps = prod.stats
    assert (
        ps.demand_accesses,
        ps.demand_hits,
        ps.demand_fills,
        ps.prefetch_fills,
        ps.evictions,
        ps.bypasses,
    ) == (
        ref.demand_accesses,
        ref.demand_hits,
        ref.demand_fills,
        ref.prefetch_fills,
        ref.evictions,
        ref.bypasses,
    )


def _fill_outcome(result):
    if result.already_present:
        return ("already_present", None)
    if not result.inserted:
        return ("bypassed", None)
    return ("inserted", result.evicted)


def _make_pair(name, oracle=None):
    prod = SetAssociativeCache(CONFIG, POLICY_FACTORIES[name](oracle))
    ref = ReferenceCache(CONFIG, POLICY_FACTORIES[name](oracle))
    return prod, ref


class TestPolicyLockstep:
    @pytest.mark.parametrize("policy_name", SOUP_POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_op_soup(self, policy_name, seed):
        """Arbitrary interleavings of lookup/fill/evict/contender ops."""
        # Stable per-(policy, seed) stream; hash() is randomized per run.
        rng = np.random.RandomState(sum(map(ord, policy_name)) * 101 + seed)
        prod, ref = _make_pair(policy_name)
        pool = CONFIG.num_blocks * 4  # 4x capacity => heavy aliasing
        for t in range(1200):
            block = int(rng.randint(pool))
            op = rng.randint(10)
            if op < 4:
                assert prod.lookup(block, t) == ref.lookup(block, t)
            elif op < 8:
                prefetch = bool(rng.randint(2))
                got = _fill_outcome(prod.fill(block, t, prefetch=prefetch))
                assert got == ref.fill(block, t, prefetch=prefetch)
            elif op == 8:
                assert prod.evict_block(block, t) == ref.evict_block(block, t)
            else:
                assert prod.lru_contender(block) == ref.lru_contender(block)
            _assert_lockstep(prod, ref)
        assert prod.resident_blocks() == sum(len(s) for s in ref.sets)

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_driven(self, policy_name, seed):
        """Realistic demand stream: lookup, fill on miss (all policies).

        This is the only mode valid for Belady OPT, whose ``t`` must be
        the actual position in the oracle's access sequence.
        """
        rng = np.random.RandomState(10 + seed)
        n = 1500
        # Zipf-ish mix: a hot set plus a cold tail, like an i-footprint.
        hot = rng.randint(0, CONFIG.num_blocks, size=n)
        cold = rng.randint(0, CONFIG.num_blocks * 6, size=n)
        seq = np.where(rng.rand(n) < 0.6, hot, cold).tolist()
        oracle = NextUseOracle(np.asarray(seq, dtype=np.int64))
        prod, ref = _make_pair(policy_name, oracle)
        for t, block in enumerate(seq):
            hit = prod.lookup(block, t)
            assert hit == ref.lookup(block, t)
            if not hit:
                got = _fill_outcome(prod.fill(block, t))
                assert got == ref.fill(block, t)
            _assert_lockstep(prod, ref)

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mid_run_state_roundtrip(self, policy_name, seed):
        """Pickle a cache mid-run, load the copy, stay in lockstep.

        Every policy (SHiP's signature tables and Tree-PLRU's bit
        arrays included) must carry its state across the pickle
        boundary an engine checkpoint uses: the loaded cache replays
        the rest of the trace bit-identically to the one that never
        stopped, and the copy shares nothing with the original.
        """
        rng = np.random.RandomState(77 + seed)
        n = 1600
        hot = rng.randint(0, CONFIG.num_blocks, size=n)
        cold = rng.randint(0, CONFIG.num_blocks * 6, size=n)
        seq = np.where(rng.rand(n) < 0.6, hot, cold).tolist()
        oracle = NextUseOracle(np.asarray(seq, dtype=np.int64))
        prod, _ = _make_pair(policy_name, oracle)
        cut = n // 2
        for t, block in enumerate(seq[:cut]):
            if not prod.lookup(block, t):
                prod.fill(block, t)

        twin = pickle.loads(pickle.dumps(prod))
        assert twin.policy is not prod.policy
        # The cache's cached on-hit callback follows its own policy.
        assert getattr(twin._on_hit, "__self__", twin.policy) is twin.policy

        for s in range(CONFIG.num_sets):
            assert twin.set_contents(s) == prod.set_contents(s)
        assert vars(twin.stats) == vars(prod.stats)

        for t in range(cut, n):
            block = seq[t]
            hit = prod.lookup(block, t)
            assert hit == twin.lookup(block, t)
            if not hit:
                assert _fill_outcome(prod.fill(block, t)) == _fill_outcome(
                    twin.fill(block, t)
                )
            for s in range(CONFIG.num_sets):
                assert twin.set_contents(s) == prod.set_contents(s)
        assert vars(twin.stats) == vars(prod.stats)
