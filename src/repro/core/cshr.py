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
from typing import List, Optional, Tuple

from repro.common.bitops import partial_tag


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
    attribute walks during the search.  The ACIC controller
    (:class:`repro.core.flat.FlatACICScheme`) additionally inlines the
    search over these lists; the methods here keep the structure usable
    (and differentially testable) on its own.  The readable
    one-object-per-entry twin lives in ``tests/reference/acic.py``.

    The controller only consumes a resolved entry's victim tag, so
    ``insert`` returns the evicted entry's victim tag (or None) and
    ``search`` returns ``(victim_tag_match, [victim tags of contender
    matches])``.
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
        self.stats = CSHRStats()

    # -- indexing ----------------------------------------------------------------

    def set_for(self, icache_set: int) -> int:
        return icache_set >> self._set_shift

    def tag_of(self, block: int) -> int:
        return partial_tag(block, self.tag_bits)

    # -- operations ----------------------------------------------------------------

    def insert(
        self, victim_block: int, contender_block: int, icache_set: int
    ) -> Optional[int]:
        """Open a comparison; returns the evicted entry's victim tag, if any."""
        self.stats.inserts += 1
        si = icache_set >> self._set_shift
        vt = self._victim_tags[si]
        ct = self._contender_tags[si]
        evicted = None
        if len(vt) >= self.ways:
            evicted = vt.pop(0)
            ct.pop(0)
            self.stats.unresolved_evictions += 1
        vt.append(self.tag_of(victim_block))
        ct.append(self.tag_of(contender_block))
        return evicted

    def search(
        self, block: int, icache_set: int
    ) -> Tuple[Optional[int], List[int]]:
        """Resolve comparisons for a fetched block (flat-tag form).

        The fetched block can match the victim field of at most one
        entry (Section III-C2) but the contender field of several.
        Returns ``(victim_match_tag, [victim tags of contender-matched
        entries])``; all matched entries are invalidated (removed).
        """
        si = icache_set >> self._set_shift
        vt = self._victim_tags[si]
        if not vt:
            return None, []
        ct = self._contender_tags[si]
        tag = self.tag_of(block)
        if tag not in vt and tag not in ct:
            return None, []
        victim_match: Optional[int] = None
        contender_victims: List[int] = []
        new_vt: List[int] = []
        new_ct: List[int] = []
        for i, v in enumerate(vt):
            c = ct[i]
            if victim_match is None and v == tag:
                victim_match = v
                self.stats.victim_resolutions += 1
            elif c == tag:
                contender_victims.append(v)
                self.stats.contender_resolutions += 1
            else:
                new_vt.append(v)
                new_ct.append(c)
        # In-place replacement keeps any cached outer references valid.
        vt[:] = new_vt
        ct[:] = new_ct
        return victim_match, contender_victims

    def occupancy(self) -> int:
        return sum(len(s) for s in self._victim_tags)

    # -- checkpoint/resume --------------------------------------------------
    #
    # The per-set tag lists are restored in place: the flat controller
    # captures direct references to them.

    def save_state(self) -> dict:
        from repro.common.state import save_stats, snapshot

        return {
            "victim_tags": snapshot(self._victim_tags),
            "contender_tags": snapshot(self._contender_tags),
            "stats": save_stats(self.stats),
        }

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_list_inplace, load_stats

        for live, saved in zip(self._victim_tags, state["victim_tags"]):
            load_list_inplace(live, saved)
        for live, saved in zip(self._contender_tags, state["contender_tags"]):
            load_list_inplace(live, saved)
        load_stats(self.stats, state["stats"])
