"""Future-knowledge oracle over a block-access trace.

Belady's OPT, the OPT-bypass scheme, and several analyses (Figure 3b,
Figure 12a) need to know *when a block is next accessed*.  The oracle
precomputes that once per trace:

* ``next_use_at(t)``     — O(1): next index after ``t`` at which
  ``blocks[t]`` is accessed again (``NEVER`` if it is not).
* ``next_use_of(block, t)`` — O(log k): next access to an arbitrary
  block after ``t`` (needed when the query time differs from an access
  to that block, e.g. prefetch fills).

Both come from one stable ``argsort`` of the trace.  Sorting by block
keeps each block's trace positions contiguous and ascending, so the
sorted order is a CSR layout: the ``k``-th distinct block's positions
are ``order[bounds[k]:bounds[k + 1]]`` (``_index`` maps block -> ``k``),
and the successor of every entry inside its slice is that access's
next use.  ``next_use``, ``order`` and ``bounds`` are stored as
``array('q')`` — 8 bytes per entry, read on the hot path as plain
Python ints without numpy boxing.  The build allocates no per-block
tuples or lists, so it adds next to nothing to the cyclic GC's
allocation count.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Sequence

import numpy as np

#: Sentinel meaning "never accessed again"; larger than any trace index.
NEVER = 1 << 62


def _int64_array(values: np.ndarray) -> array:
    out = array("q")
    out.frombytes(values.astype(np.int64, copy=False).tobytes())
    return out


class NextUseOracle:
    """Precomputed next-use information for one trace."""

    def __init__(self, blocks: Sequence[int]) -> None:
        blocks_arr = np.asarray(blocks, dtype=np.int64)
        n = len(blocks_arr)
        self.length = n
        order = np.argsort(blocks_arr, kind="stable")
        by_block = blocks_arr[order]
        # Slice boundaries: every block change plus both ends.  The empty
        # trace gets a lone end marker, i.e. no slices at all.
        changes = by_block[1:] != by_block[:-1]
        bounds = np.flatnonzero(np.concatenate(([n > 0], changes, [True])))
        # Each sorted entry's successor is its next use, except that the
        # last entry of every slice is never used again.
        successor = np.empty(n, dtype=np.int64)
        successor[:-1] = order[1:]
        successor[bounds[1:] - 1] = NEVER
        next_use = np.empty(n, dtype=np.int64)
        next_use[order] = successor
        self._next_use = _int64_array(next_use)
        self._order = _int64_array(order)
        self._bounds = _int64_array(bounds)
        self._index = dict(
            zip(by_block[bounds[:-1]].tolist(), range(len(bounds) - 1))
        )

    def next_use_at(self, t: int) -> int:
        """Next access index of the block accessed at ``t`` (after ``t``)."""
        return self._next_use[t]

    def next_use_of(self, block: int, t: int) -> int:
        """Next access index of ``block`` strictly after time ``t``."""
        k = self._index.get(block)
        if k is None:
            return NEVER
        hi = self._bounds[k + 1]
        order = self._order
        i = bisect_right(order, t, self._bounds[k], hi)
        return order[i] if i < hi else NEVER
