"""Branch Target Buffer.

Table II machine: 8192-entry, 4-way BTB.  The BTB maps a static branch
site to its most recent target; indirect dispatch sites (one site, many
targets) are its natural enemy, which is exactly why server workloads
miss in it.
"""

from __future__ import annotations

from repro.common.bitops import fold_hash, is_power_of_two, log2_exact
from repro.common.containers import LRUSet


class BranchTargetBuffer:
    """Set-associative site -> last-target map with LRU replacement."""

    def __init__(self, entries: int = 8192, ways: int = 4) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"BTB entries must be a power of two: {entries}")
        if entries % ways:
            raise ValueError(f"{entries} entries not divisible by {ways} ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._index_bits = log2_exact(self.num_sets)
        self._sets = [LRUSet(ways) for _ in range(self.num_sets)]

    def _set_for(self, site: int) -> LRUSet:
        return self._sets[fold_hash(site, self._index_bits)]

    def predict(self, site: int) -> int | None:
        """Predicted target block for ``site`` (None on BTB miss)."""
        line_set = self._set_for(site)
        target = line_set.get(site)
        if target is None and site not in line_set:
            return None
        line_set.touch(site)
        return target

    def update(self, site: int, target: int) -> None:
        """Record the actual target of ``site``."""
        self._set_for(site).insert_mru(site, target)
