"""CSHR: Comparison Status Holding Registers (Section III-B/III-C).

The CSHR tracks unresolved (i-Filter victim, i-cache contender) pairs.
When a later fetch matches the victim's partial tag, the victim "won"
(it was re-accessed sooner); matching the contender's tag means the
contender won.  Either resolution trains the admission predictor and
frees the entry.

Geometry (Table I): 256 entries organised as 8 sets x 32 ways; a pair
is placed in the set selected by the 3 most-significant bits of the
i-cache set index both blocks map to, so a fetched block's lookup only
searches one 32-entry set.  Entries store 12-bit partial tags (2 x 12
bits + valid + 5 LRU bits).  Entries evicted before resolution get the
benefit of the doubt: the controller treats the victim as the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class CSHRStats:
    inserts: int = 0
    victim_resolutions: int = 0
    contender_resolutions: int = 0
    unresolved_evictions: int = 0

    @property
    def resolutions(self) -> int:
        return self.victim_resolutions + self.contender_resolutions


class FlatCSHR:
    """Set-associative comparison tracker with per-set FIFO replacement.

    Each set is a pair of parallel flat lists (victim tags, contender
    tags) kept in insertion order — no per-entry object allocation, no
    attribute walks during the search — beside a count of each tag in
    the two lists, so a fetch whose tag waits in no entry costs one dict
    probe, not two list scans.  This class holds the geometry,
    the tag lists and the stats; the operations on them live fused into
    the ACIC controller (:class:`repro.core.flat.FlatACICScheme`): the
    insert in ``_admission_decision``, the search in ``lookup`` and
    ``_resolve_matches``.  The readable one-object-per-entry twin, with
    ``insert``/``search`` as methods, lives in ``tests/reference/acic.py``.
    """

    def __init__(
        self,
        entries: int = 256,
        sets: int = 8,
        tag_bits: int = 12,
        icache_set_bits: int = 6,
    ) -> None:
        if entries % sets:
            raise ValueError(f"{entries} entries not divisible into {sets} sets")
        if sets.bit_length() - 1 > icache_set_bits:
            raise ValueError(
                f"{sets} CSHR sets need more selector bits than the "
                f"{icache_set_bits}-bit i-cache set index provides"
            )
        self.entries = entries
        self.sets = sets
        self.ways = entries // sets
        self.tag_bits = tag_bits
        self._set_shift = icache_set_bits - (sets.bit_length() - 1)
        # Parallel flat lists per set, FIFO order (index 0 = oldest).
        self._victim_tags: List[List[int]] = [[] for _ in range(sets)]
        self._contender_tags: List[List[int]] = [[] for _ in range(sets)]
        # Per set, tag -> its entries in both lists (absent when none).
        self._tag_counts: List[Dict[int, int]] = [{} for _ in range(sets)]
        self.stats = CSHRStats()
