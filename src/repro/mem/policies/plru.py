"""Tree-based pseudo-LRU replacement.

Real L1 caches often implement tree-PLRU instead of true LRU.  We keep
it as an extra ablation point: the paper's baseline is true LRU, and
tree-PLRU lets us check that ACIC's gains are not an artifact of exact
recency bookkeeping.

Each set owns ``ways - 1`` tree bits arranged as a complete binary
tree; a bit of 0 means "the LRU side is the left subtree".  Hits flip
the bits along the path *away* from the touched way; the victim is
found by walking toward the LRU side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Iterable

from repro.common.bitops import is_power_of_two, log2_exact
from repro.mem.policies.base import ReplacementPolicy


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU; requires power-of-two associativity."""

    name = "tree-plru"

    def __init__(self, ways: int) -> None:
        if not is_power_of_two(ways):
            raise ValueError(f"tree-PLRU needs power-of-two ways, got {ways}")
        self.ways = ways
        self.levels = log2_exact(ways)
        # Lazily allocated per-set state.
        self._tree: Dict[int, List[int]] = {}
        self._way_of: Dict[int, Dict[int, int]] = {}
        self._block_at: Dict[int, Dict[int, int]] = {}

    def _set_state(self, set_index: int):
        tree = self._tree.get(set_index)
        if tree is None:
            tree = [0] * (self.ways - 1)
            self._tree[set_index] = tree
            self._way_of[set_index] = {}
            self._block_at[set_index] = {}
        return tree, self._way_of[set_index], self._block_at[set_index]

    def _touch_way(self, tree: List[int], way: int) -> None:
        """Point every tree bit on the path to ``way`` away from it."""
        node = 0
        for level in range(self.levels - 1, -1, -1):
            bit = (way >> level) & 1
            tree[node] = 1 - bit
            node = 2 * node + 1 + bit

    def _lru_way(self, tree: List[int]) -> int:
        node = 0
        way = 0
        for _ in range(self.levels):
            bit = tree[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        tree, way_of, _ = self._set_state(set_index)
        way = way_of.get(block)
        if way is not None:
            self._touch_way(tree, way)

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        tree, _, block_at = self._set_state(set_index)
        way = self._lru_way(tree)
        victim = block_at.get(way)
        if victim is None:
            # Should not happen once the set is full; fall back to recency.
            return next(iter(resident))
        return victim

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        tree, way_of, block_at = self._set_state(set_index)
        # First fill free ways in order; afterwards reuse the victim's way.
        if len(way_of) < self.ways:
            used = set(way_of.values())
            way = next(w for w in range(self.ways) if w not in used)
        else:
            way = self._lru_way(tree)
        way_of[block] = way
        block_at[way] = block
        self._touch_way(tree, way)

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        _, way_of, block_at = self._set_state(set_index)
        way = way_of.pop(block, None)
        if way is not None and block_at.get(way) == block:
            del block_at[way]

    _STATE_ATTRS = ("_tree", "_way_of", "_block_at")

    def save_state(self) -> dict:
        from repro.common.state import save_attrs

        return save_attrs(self, self._STATE_ATTRS)

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_attrs

        load_attrs(self, state, self._STATE_ATTRS)
