"""The fast recency-ordered container backing every LRU structure.

Python 3.7+ dicts preserve insertion order and support O(1) delete /
reinsert, which makes a plain dict the fastest pure-Python LRU list:
the *first* key is the least recently used, the *last* key the most
recently used.  :class:`LRUSet` exploits that.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional


class LRUSet:
    """One LRU set: a set of a set-associative cache, or a whole
    fully-associative buffer (the i-Filter, the VC3K victim cache, the
    entangling table), which is one set of ``ways`` lines.

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

    def remove(self, block: int) -> bool:
        """Remove ``block`` if present.  Returns True if it was removed."""
        return self._lines.pop(block, _MISSING) is not _MISSING


_MISSING = object()
