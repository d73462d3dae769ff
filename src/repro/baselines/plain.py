"""Plain replacement-policy schemes: the L1i driven by one policy.

The registry's production path for ``plru``/``srrip``/``ship``, and
the readable reference for the schemes that run on fused twins: LRU
and the 36 KB / 40 KB i-caches (``FlatLRUScheme``), Belady OPT
(``FlatOPTScheme``), GHRP and Hawkeye/Harmony.  The differential
suites compare each twin's state with this class's through a test-side
projection into its shape.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.policies.base import ReplacementPolicy


class PlainCacheScheme:
    """An L1i whose behaviour is entirely its replacement policy's."""

    def __init__(
        self,
        config: CacheConfig,
        policy: ReplacementPolicy,
        name: Optional[str] = None,
    ) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, policy)
        self.name = name or policy.name

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        return self.icache.lookup(block, t)

    def fill(self, block: int, t: int, cycle: int) -> None:
        self.icache.fill(block, t)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self.icache.fill(block, t, prefetch=True)

    def contains(self, block: int) -> bool:
        return self.icache.contains(block)
