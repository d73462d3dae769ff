"""Fast recency-ordered containers backing every LRU structure.

Python 3.7+ dicts preserve insertion order and support O(1) delete /
reinsert, which makes a plain dict the fastest pure-Python LRU list:
the *first* key is the least recently used, the *last* key the most
recently used.  Both containers below exploit that.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional


class LRUSet:
    """One set of a set-associative LRU structure.

    Keys are block ids; values are arbitrary per-line payloads (``None``
    when the caller only needs presence).  The LRU victim is the first
    key in iteration order.
    """

    __slots__ = ("ways", "_lines")

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        self._lines: Dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, block: int) -> bool:
        return block in self._lines

    def __iter__(self) -> Iterator[int]:
        """Iterate keys from LRU to MRU."""
        return iter(self._lines)

    def get(self, block: int) -> Any:
        return self._lines.get(block)

    def touch(self, block: int) -> bool:
        """Promote ``block`` to MRU.  Returns False if it is not present."""
        lines = self._lines
        try:
            value = lines.pop(block)
        except KeyError:
            return False
        lines[block] = value
        return True

    def lru_key(self) -> int:
        """Return the current LRU block id (the replacement candidate)."""
        return next(iter(self._lines))

    def mru_key(self) -> int:
        """Return the most recently used block id."""
        return next(reversed(self._lines))

    def insert_mru(self, block: int, value: Any = None) -> Optional[int]:
        """Insert ``block`` at MRU, evicting the LRU line if full.

        Returns the evicted block id, or None if no eviction happened.
        Re-inserting a resident block just promotes it.
        """
        lines = self._lines
        if block in lines:
            del lines[block]
            lines[block] = value
            return None
        victim = None
        if len(lines) >= self.ways:
            victim = next(iter(lines))
            del lines[victim]
        lines[block] = value
        return victim

    def insert_lru(self, block: int, value: Any = None) -> Optional[int]:
        """Insert ``block`` at the *LRU* end (it becomes the next victim).

        Used by insertion-policy ablations.  Returns the evicted block
        id, or None.
        """
        lines = self._lines
        if block in lines:
            return None
        victim = None
        if len(lines) >= self.ways:
            victim = next(iter(lines))
            del lines[victim]
        # Rebuild with the new block first; sets are small (<= 32 ways)
        # so this is acceptable for the rare ablation path.
        rebuilt: Dict[int, Any] = {block: value}
        rebuilt.update(lines)
        self._lines = rebuilt
        return victim

    def remove(self, block: int) -> bool:
        """Remove ``block`` if present.  Returns True if it was removed."""
        return self._lines.pop(block, _MISSING) is not _MISSING

    def lru_position(self, block: int) -> int:
        """Return the recency rank of ``block`` (0 = LRU).

        Raises KeyError when the block is not resident.  O(ways); only
        used by stats and tests, never on the hot path.
        """
        for rank, key in enumerate(self._lines):
            if key == block:
                return rank
        raise KeyError(block)

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import snapshot

        return {"lines": snapshot(self._lines)}

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_dict_inplace

        load_dict_inplace(self._lines, state["lines"])


_MISSING = object()


class FullyAssociativeLRU:
    """A fully-associative LRU buffer (i-Filter, VC3K, CSHR sets...).

    Semantically identical to :class:`LRUSet`; kept as a separate name
    so call sites read naturally ("the i-Filter is a fully-associative
    buffer") and so capacity-specific helpers can live here.
    """

    __slots__ = ("capacity", "_lines")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lines: Dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, block: int) -> bool:
        return block in self._lines

    def __iter__(self) -> Iterator[int]:
        """Iterate keys from LRU to MRU."""
        return iter(self._lines)

    def get(self, block: int) -> Any:
        return self._lines.get(block)

    def set_value(self, block: int, value: Any) -> None:
        """Update the payload of a resident block without promoting it."""
        if block not in self._lines:
            raise KeyError(block)
        self._lines[block] = value

    def touch(self, block: int) -> bool:
        lines = self._lines
        try:
            value = lines.pop(block)
        except KeyError:
            return False
        lines[block] = value
        return True

    def is_full(self) -> bool:
        return len(self._lines) >= self.capacity

    def lru_key(self) -> int:
        return next(iter(self._lines))

    def insert(self, block: int, value: Any = None) -> Optional[tuple]:
        """Insert at MRU.  Returns ``(victim_block, victim_value)`` when a
        line had to be evicted, else None."""
        lines = self._lines
        if block in lines:
            del lines[block]
            lines[block] = value
            return None
        evicted = None
        if len(lines) >= self.capacity:
            victim = next(iter(lines))
            evicted = (victim, lines.pop(victim))
        lines[block] = value
        return evicted

    def remove(self, block: int) -> Any:
        """Remove and return the payload of ``block`` (KeyError if absent)."""
        return self._lines.pop(block)

    def pop_lru(self) -> tuple:
        """Remove and return ``(block, value)`` of the LRU line."""
        victim = next(iter(self._lines))
        return victim, self._lines.pop(victim)

    def items(self):
        return self._lines.items()

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import snapshot

        return {"lines": snapshot(self._lines)}

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_dict_inplace

        load_dict_inplace(self._lines, state["lines"])
