"""Victim-cache schemes: VC3K and the Virtual Victim Cache (Section IV-F).

VC3K parks L1i evictions in a dedicated 3 KB fully-associative buffer;
VVC parks them in predicted-dead lines of *other* L1i sets.  Both probe
their victim store on an L1i miss and swap the block back on a hit.
"""

from __future__ import annotations

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.lru import LRUPolicy
from repro.mem.victim import VictimCache
from repro.mem.vvc import DeadBlockPredictor, VirtualVictimCache


class VictimCacheScheme:
    """LRU L1i + traditional fully-associative victim cache (VC3K)."""

    def __init__(self, config: CacheConfig, victim_bytes: int = 3 * 1024) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, LRUPolicy())
        self.victim_cache = VictimCache(victim_bytes)
        self.name = f"vc{victim_bytes // 1024}k"

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        if self.icache.lookup(block, t):
            return True
        if self.victim_cache.probe(block):
            # Swap back: the block returns to L1i; the L1i victim parks.
            result = self.icache.fill(block, t)
            if result.evicted is not None:
                self.victim_cache.insert(result.evicted)
            return True
        return False

    def fill(self, block: int, t: int, cycle: int) -> None:
        result = self.icache.fill(block, t)
        if result.evicted is not None:
            self.victim_cache.insert(result.evicted)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        result = self.icache.fill(block, t, prefetch=True)
        if result.evicted is not None:
            self.victim_cache.insert(result.evicted)

    def contains(self, block: int) -> bool:
        return self.icache.contains(block) or block in self.victim_cache


class VVCScheme:
    """LRU L1i using predicted-dead lines as a virtual victim cache.

    The paper finds this *hurts* the instruction stream (most parked
    victims out-live their usefulness while displacing live lines); the
    mechanism is reproduced faithfully so that result can emerge.
    """

    name = "vvc"

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, LRUPolicy())
        self.vvc = VirtualVictimCache(self.icache, DeadBlockPredictor())

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        self.vvc.predictor.on_access(block)
        if self.icache.lookup(block, t):
            return True
        if self.vvc.probe_virtual(block):
            result = self.vvc.promote(block, t)
            self._handle_eviction(result.evicted, t)
            return True
        return False

    def _handle_eviction(self, victim, t: int) -> None:
        if victim is None:
            return
        self.vvc.predictor.on_evict(victim)
        if self.vvc.is_parked(victim):
            self.vvc.forget(victim)  # a parked block died naturally
        else:
            home_set = self.icache.set_index(victim)
            self.vvc.park_victim(victim, home_set, t)

    def _fill(self, block: int, t: int, prefetch: bool) -> None:
        result = self.icache.fill(block, t, prefetch=prefetch)
        self._handle_eviction(result.evicted, t)

    def fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, prefetch=False)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, prefetch=True)

    def contains(self, block: int) -> bool:
        return self.icache.contains(block) or self.vvc.is_parked(block)
