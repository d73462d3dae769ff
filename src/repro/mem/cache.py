"""Generic set-associative cache with pluggable replacement policy.

The cache stores only presence (tag array); payloads are irrelevant in
a trace-driven simulator.  Recency order is maintained unconditionally
because (a) it *is* the metadata for LRU, and (b) every other policy in
the paper (SRRIP tie-breaks, GHRP fallback, OPT tie-breaks) consults
recency as a secondary key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.common.bitops import BLOCK_BYTES, is_power_of_two, log2_exact, mask
from repro.common.containers import LRUSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.mem.policies.base import ReplacementPolicy


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` and ``ways`` must describe a power-of-two number of
    sets (the hardware constraint), except that ``ways`` may equal the
    total number of blocks for a fully-associative structure.
    """

    size_bytes: int
    ways: int
    block_bytes: int = BLOCK_BYTES
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ValueError(f"invalid cache geometry: {self}")
        if self.size_bytes % (self.ways * self.block_bytes):
            raise ValueError(
                f"{self.name}: size {self.size_bytes}B is not divisible by "
                f"{self.ways} ways x {self.block_bytes}B blocks"
            )
        if not is_power_of_two(self.num_sets):
            raise ValueError(
                f"{self.name}: {self.num_sets} sets is not a power of two"
            )

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.ways

    @property
    def set_index_bits(self) -> int:
        return log2_exact(self.num_sets)


@dataclass
class CacheStats:
    """Demand/prefetch counters for one cache instance."""

    demand_accesses: int = 0
    demand_hits: int = 0
    prefetch_fills: int = 0
    demand_fills: int = 0
    evictions: int = 0
    bypasses: int = 0

    @property
    def demand_misses(self) -> int:
        return self.demand_accesses - self.demand_hits


@dataclass
class FillResult:
    """Outcome of a fill: what got evicted, or whether we bypassed."""

    inserted: bool
    evicted: Optional[int] = None
    already_present: bool = False


#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()


class SetAssociativeCache:
    """Tag array + recency order; replacement delegated to a policy."""

    def __init__(self, config: CacheConfig, policy: "ReplacementPolicy") -> None:
        self.config = config
        self.policy = policy
        self._set_mask = mask(config.set_index_bits)
        self._sets = [LRUSet(config.ways) for _ in range(config.num_sets)]
        # The demand-hit path skips the policy callback entirely when the
        # policy declares it a no-op (LRU: recency order *is* the state).
        self._on_hit = None if policy.trivial_on_hit else policy.on_hit
        self.stats = CacheStats()

    # -- indexing ----------------------------------------------------------

    def set_index(self, block: int) -> int:
        return block & self._set_mask

    def set_contents(self, set_index: int) -> list[int]:
        """Resident blocks of a set in LRU -> MRU order (for tests/policies)."""
        return list(self._sets[set_index])

    def line_dicts(self) -> list:
        """Per-set backing dicts (LRU -> MRU iteration order), by set index.

        Fast-path API for the flat scheme twins: they index these dicts
        directly in their fused lookup/fill bodies.  The dicts are the
        live containers, never replaced, so a captured list stays valid
        for the cache's lifetime.
        """
        return [s._lines for s in self._sets]

    # -- access path -------------------------------------------------------

    def lookup(self, block: int, t: int = 0) -> bool:
        """Demand lookup.  On hit, promotes recency and notifies policy.

        This is the simulator's hottest call (once per fetch record per
        cache level), so the hit path is a fused pop/reinsert on the
        set's backing dict rather than a ``touch`` call.
        """
        stats = self.stats
        stats.demand_accesses += 1
        set_index = block & self._set_mask
        lines = self._sets[set_index]._lines
        value = lines.pop(block, _ABSENT)
        if value is _ABSENT:
            return False
        lines[block] = value  # back in at MRU
        stats.demand_hits += 1
        if self._on_hit is not None:
            self._on_hit(set_index, block, t)
        return True

    def contains(self, block: int) -> bool:
        """Presence probe with no side effects (prefetch dedup, tests)."""
        return block in self._sets[block & self._set_mask]

    def fill(self, block: int, t: int = 0, prefetch: bool = False) -> FillResult:
        """Install ``block``, evicting the policy's victim if the set is full.

        The policy may answer ``victim() -> None`` to bypass the fill
        entirely (Belady MIN).
        """
        set_index = block & self._set_mask
        line_set = self._sets[set_index]
        if block in line_set:
            # Racing prefetch/demand fill: just refresh recency.
            line_set.touch(block)
            return FillResult(inserted=False, already_present=True)

        evicted: Optional[int] = None
        if len(line_set) >= line_set.ways:
            # The live set view iterates LRU -> MRU; passing it directly
            # avoids materialising a list per fill.
            victim = self.policy.victim(set_index, line_set, block, t)
            if victim is None:
                self.stats.bypasses += 1
                return FillResult(inserted=False)
            if victim not in line_set:
                raise RuntimeError(
                    f"{self.policy.name} chose non-resident victim {victim:#x} "
                    f"in set {set_index}"
                )
            line_set.remove(victim)
            self.policy.on_evict(set_index, victim, t)
            self.stats.evictions += 1
            evicted = victim

        line_set.insert_mru(block)
        self.policy.on_fill(set_index, block, t, prefetch)
        if prefetch:
            self.stats.prefetch_fills += 1
        else:
            self.stats.demand_fills += 1
        return FillResult(inserted=True, evicted=evicted)

    def evict_block(self, block: int, t: int = 0) -> bool:
        """Force ``block`` out (victim-cache swaps).  True if it was present."""
        set_index = block & self._set_mask
        if self._sets[set_index].remove(block):
            self.policy.on_evict(set_index, block, t)
            self.stats.evictions += 1
            return True
        return False

    def lru_contender(self, block: int) -> Optional[int]:
        """The line the policy would evict if ``block`` were filled now.

        Used by admission-control schemes (ACIC, OBM, DSB) that must
        name the *contender* before deciding whether to fill.  Returns
        None when the set still has free ways (no contender exists).
        """
        set_index = block & self._set_mask
        line_set = self._sets[set_index]
        if len(line_set) < line_set.ways:
            return None
        return line_set.lru_key()

    def resident_blocks(self) -> int:
        return sum(len(s) for s in self._sets)
