"""L2/L3/DRAM latency and presence model behind the L1 i-cache.

Table II machine: 512 KB L2 (15 cycles), 2 MB L3 (35 cycles),
single-channel DDR4-3200 DRAM.  The model only has to answer one
question — *which level serves this L1i miss, and how many cycles does
that cost* — so each level is a flat LRU presence set over block ids:
a plain dict in recency order (insertion order = LRU -> MRU), with the
level's block capacity as the only geometry that matters.  The seed
model ran two full :class:`~repro.mem.cache.SetAssociativeCache`
instances with policy dispatch here; the flat model produces the same
per-level latencies and the same stats fields at a fraction of the
miss-path cost (the data stream is not simulated; datacenter
i-footprints dominate these levels' behaviour for the front-end).

``tests/test_mshr_differential.py`` pins this model bit-identical to a
naive list-based LRU reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import BLOCK_BYTES


@dataclass(frozen=True)
class HierarchyConfig:
    """Latencies (cycles) and geometries of the levels behind L1i.

    ``l2_ways``/``l3_ways`` are kept for interface stability (they are
    part of the machine fingerprint the result cache is keyed by) but
    the flat presence model is fully associative: only the block
    capacities derived from the sizes affect behaviour.
    """

    l2_size_bytes: int = 512 * 1024
    l2_ways: int = 8
    l2_latency: int = 15
    l3_size_bytes: int = 2 * 1024 * 1024
    l3_ways: int = 16
    l3_latency: int = 35
    dram_latency: int = 200
    block_bytes: int = BLOCK_BYTES

    def __post_init__(self) -> None:
        if not self.l2_latency < self.l3_latency < self.dram_latency:
            raise ValueError(
                "latencies must increase down the hierarchy: "
                f"L2={self.l2_latency} L3={self.l3_latency} "
                f"DRAM={self.dram_latency}"
            )
        if self.block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive: {self}")
        if (
            self.l2_size_bytes < self.block_bytes
            or self.l3_size_bytes < self.block_bytes
        ):
            raise ValueError(f"levels must hold at least one block: {self}")

    @property
    def l2_blocks(self) -> int:
        return self.l2_size_bytes // self.block_bytes

    @property
    def l3_blocks(self) -> int:
        return self.l3_size_bytes // self.block_bytes


@dataclass
class HierarchyStats:
    l2_hits: int = 0
    l3_hits: int = 0
    dram_fills: int = 0

    @property
    def accesses(self) -> int:
        return self.l2_hits + self.l3_hits + self.dram_fills


class MemoryHierarchy:
    """Serves L1i misses; returns the fill latency in cycles.

    Each level is a dict used as an LRU set: membership test on access,
    pop/reinsert to promote to MRU, ``next(iter(...))`` to name the LRU
    victim when a fill overflows the capacity.
    """

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self._l2: dict[int, None] = {}
        self._l3: dict[int, None] = {}
        self._l2_cap = cfg.l2_blocks
        self._l3_cap = cfg.l3_blocks
        self.stats = HierarchyStats()

    def access(self, block: int, t: int = 0) -> int:
        """Fetch ``block`` from the deepest level holding it.

        Fills the levels above the hit level (NINE, i.e. non-inclusive
        non-exclusive: evictions do not back-invalidate) and returns the
        access latency in cycles.
        """
        cfg = self.config
        l2 = self._l2
        if l2.pop(block, 0) is None:  # popped value is None only on hit
            l2[block] = None  # back in at MRU
            self.stats.l2_hits += 1
            return cfg.l2_latency
        l3 = self._l3
        if l3.pop(block, 0) is None:
            l3[block] = None
            if len(l2) >= self._l2_cap:
                del l2[next(iter(l2))]
            l2[block] = None
            self.stats.l3_hits += 1
            return cfg.l3_latency
        self.stats.dram_fills += 1
        if len(l3) >= self._l3_cap:
            del l3[next(iter(l3))]
        l3[block] = None
        if len(l2) >= self._l2_cap:
            del l2[next(iter(l2))]
        l2[block] = None
        return cfg.dram_latency

    # -- presence probes (tests/diagnostics; not on the miss path) ---------

    def in_l2(self, block: int) -> bool:
        return block in self._l2

    def in_l3(self, block: int) -> bool:
        return block in self._l3

    def resident_blocks(self) -> int:
        return len(self._l2) + len(self._l3)

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import save_stats, snapshot

        return {
            "l2": snapshot(self._l2),
            "l3": snapshot(self._l3),
            "stats": save_stats(self.stats),
        }

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_dict_inplace, load_stats

        load_dict_inplace(self._l2, state["l2"])
        load_dict_inplace(self._l3, state["l3"])
        load_stats(self.stats, state["stats"])
