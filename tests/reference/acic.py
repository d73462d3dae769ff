"""The readable ACIC: the executable reference for the production controller.

The scheme registry builds :class:`repro.core.flat.FlatACICScheme`, the
fused, array-backed controller.  This module keeps the same mechanism
written plainly, one method per step of Figures 2-8:

1. every demand fetch first resolves any CSHR comparisons the fetched
   block settles, training the admission predictor;
2. fetches probe the i-Filter and i-cache in parallel;
3. misses (demand and prefetch) fill the *i-Filter only*;
4. an i-Filter eviction triggers the admission decision: the predictor
   compares the victim against the LRU *contender* of its i-cache set —
   admit (replace the contender) or drop — and a CSHR entry is opened
   so the decision's ground truth can train the predictor later;
5. CSHR entries evicted unresolved give the victim the benefit of the
   doubt (trained as if it won).

:class:`CSHR` is the readable twin of :class:`repro.core.cshr.FlatCSHR`:
one :class:`CSHREntry` object per outstanding comparison instead of
parallel tag lists.

The differential suites (``tests/test_acic_differential.py`` and the
registry-level ones through :func:`reference.readable_registry`) lock
the production controller to this one bit for bit.  A behavioural
change lands here first, then in the flat controller, with the
differential suite arbitrating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.bitops import partial_tag
from repro.core.cshr import CSHRStats
from repro.core.flat import ACICStats, AdmissionAudit
from repro.core.ifilter import IFilter
from repro.core.predictor import AdmissionPredictor, TwoLevelAdmissionPredictor
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NEVER, NextUseOracle
from repro.mem.policies.lru import LRUPolicy


@dataclass
class CSHREntry:
    """One outstanding comparison (partial tags only, as in hardware)."""

    victim_tag: int
    contender_tag: int


class CSHR:
    """Set-associative comparison tracker with per-set LRU."""

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
        # Each set is a recency-ordered list of CSHREntry (index 0 = LRU).
        self._sets: List[List[CSHREntry]] = [[] for _ in range(sets)]
        self.stats = CSHRStats()

    # -- indexing ----------------------------------------------------------------

    def set_for(self, icache_set: int) -> int:
        """CSHR set = the m most-significant bits of the i-cache set index."""
        return icache_set >> self._set_shift

    def tag_of(self, block: int) -> int:
        return partial_tag(block, self.tag_bits)

    # -- operations ----------------------------------------------------------------

    def insert(
        self, victim_block: int, contender_block: int, icache_set: int
    ) -> Optional[CSHREntry]:
        """Open a comparison; returns an evicted *unresolved* entry, if any.

        The caller must apply the benefit-of-the-doubt training for the
        returned entry.
        """
        self.stats.inserts += 1
        entries = self._sets[self.set_for(icache_set)]
        evicted = None
        if len(entries) >= self.ways:
            evicted = entries.pop(0)
            self.stats.unresolved_evictions += 1
        entries.append(
            CSHREntry(
                victim_tag=self.tag_of(victim_block),
                contender_tag=self.tag_of(contender_block),
            )
        )
        return evicted

    def search(
        self, block: int, icache_set: int
    ) -> Tuple[Optional[CSHREntry], List[CSHREntry]]:
        """Resolve comparisons for a fetched block.

        Returns ``(victim_match, contender_matches)``: the fetched block
        can match the victim field of at most one entry (Section III-C2)
        but the contender field of several.  All matched entries are
        invalidated (removed).
        """
        entries = self._sets[self.set_for(icache_set)]
        if not entries:
            return None, []
        tag = self.tag_of(block)
        victim_match: Optional[CSHREntry] = None
        contender_matches: List[CSHREntry] = []
        survivors: List[CSHREntry] = []
        for entry in entries:
            if victim_match is None and entry.victim_tag == tag:
                victim_match = entry
                self.stats.victim_resolutions += 1
            elif entry.contender_tag == tag:
                contender_matches.append(entry)
                self.stats.contender_resolutions += 1
            else:
                survivors.append(entry)
        if victim_match is not None or contender_matches:
            self._sets[self.set_for(icache_set)] = survivors
        return victim_match, contender_matches

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint/resume --------------------------------------------------

    def save_state(self) -> dict:
        from repro.common.state import save_stats, snapshot

        return {
            "sets": snapshot(self._sets),
            "stats": save_stats(self.stats),
        }

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_list_inplace, load_stats

        for live, saved in zip(self._sets, state["sets"]):
            load_list_inplace(live, saved)
        load_stats(self.stats, state["stats"])


class ACICScheme:
    """Admission-controlled instruction cache (the paper's contribution)."""

    name = "acic"

    #: How CSHR entries evicted before resolution train the predictor:
    #: "victim" = the paper's benefit of the doubt (treated as if the
    #: victim won), "contender" = the opposite, "none" = no training.
    UNRESOLVED_POLICIES = ("victim", "contender", "none")

    def __init__(
        self,
        icache_config: Optional[CacheConfig] = None,
        predictor: Optional[AdmissionPredictor] = None,
        ifilter_slots: int = 16,
        cshr: Optional[CSHR] = None,
        tag_bits: int = 12,
        use_ifilter: bool = True,
        always_insert: bool = False,
        unresolved_policy: str = "victim",
        audit_oracle: Optional[NextUseOracle] = None,
    ) -> None:
        if unresolved_policy not in self.UNRESOLVED_POLICIES:
            raise ValueError(
                f"unresolved_policy must be one of {self.UNRESOLVED_POLICIES}, "
                f"got {unresolved_policy!r}"
            )
        self.config = icache_config or CacheConfig(32 * 1024, 8, name="L1i")
        self.icache = SetAssociativeCache(self.config, LRUPolicy())
        self.predictor = predictor or TwoLevelAdmissionPredictor(tag_bits=tag_bits)
        self.use_ifilter = use_ifilter
        self.always_insert = always_insert
        self.ifilter = IFilter(ifilter_slots) if use_ifilter else None
        self.cshr = cshr or CSHR(
            tag_bits=tag_bits, icache_set_bits=self.config.set_index_bits
        )
        self.tag_bits = tag_bits
        self.unresolved_policy = unresolved_policy
        self.audit_oracle = audit_oracle
        self.audit = AdmissionAudit() if audit_oracle is not None else None
        self.stats = ACICStats()
        self._last_resolved_block = -1

    # -- CSHR resolution -------------------------------------------------------

    def _resolve_comparisons(self, block: int, cycle: int) -> None:
        """Settle any CSHR entries the fetch of ``block`` resolves.

        Consecutive fetch groups from the same block cannot produce new
        matches (the first fetch already invalidated them), so we skip
        repeat searches — mirroring hardware, where the comparison is
        made once per block transition.
        """
        if block == self._last_resolved_block:
            return
        self._last_resolved_block = block
        icache_set = self.icache.set_index(block)
        victim_match, contender_matches = self.cshr.search(block, icache_set)
        if victim_match is not None:
            self.predictor.train(victim_match.victim_tag, True, cycle)
        for entry in contender_matches:
            self.predictor.train(entry.victim_tag, False, cycle)

    # -- admission -------------------------------------------------------------

    def _admission_decision(self, victim: int, t: int, cycle: int) -> None:
        """Decide the fate of an i-Filter victim (or raw miss, no-filter mode)."""
        contender = self.icache.lru_contender(victim)
        if contender is None:
            # Free way available: no contender, no comparison to learn from.
            self.icache.fill(victim, t)
            self.stats.free_way_fills += 1
            return

        victim_tag = partial_tag(victim, self.tag_bits)
        if self.always_insert:
            admit = True
        else:
            admit = self.predictor.predict(victim_tag, cycle)
        self.stats.victims_considered += 1
        if admit:
            self.stats.victims_admitted += 1

        if self.audit is not None:
            oracle = self.audit_oracle
            d_v = oracle.next_use_of(victim, t)
            d_c = oracle.next_use_of(contender, t)
            self.audit.admitted.append(admit)
            self.audit.victim_distance.append(
                NEVER if d_v >= NEVER else d_v - t
            )
            self.audit.contender_distance.append(
                NEVER if d_c >= NEVER else d_c - t
            )

        if admit:
            self.icache.fill(victim, t)

        # Open the comparison regardless of the decision: the predictor
        # learns from the outcome either way (Figure 5).
        evicted = self.cshr.insert(
            victim, contender, self.icache.set_index(victim)
        )
        if evicted is not None and self.unresolved_policy != "none":
            # Paper default ("victim"): benefit of the doubt — the
            # unresolved victim is treated as the winner.
            self.predictor.train(
                evicted.victim_tag, self.unresolved_policy == "victim", cycle
            )
            self.stats.benefit_of_doubt_trainings += 1

    # -- L1I scheme protocol ------------------------------------------------------

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        """Demand fetch: resolve comparisons, then probe filter + cache."""
        self._resolve_comparisons(block, cycle)
        if self.ifilter is not None and self.ifilter.lookup(block):
            return True
        return self.icache.lookup(block, t)

    def fill(self, block: int, t: int, cycle: int) -> None:
        """A demand miss returned from the hierarchy."""
        self._fill(block, t, cycle)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        """A prefetched block arrived (prefetches also land in the i-Filter)."""
        self._fill(block, t, cycle)

    def _fill(self, block: int, t: int, cycle: int) -> None:
        if self.ifilter is None:
            # Figure 17 "no i-Filter": admission control on the raw miss.
            self._admission_decision(block, t, cycle)
            return
        victim = self.ifilter.fill(block)
        if victim is not None:
            self._admission_decision(victim, t, cycle)

    def contains(self, block: int) -> bool:
        if self.ifilter is not None and block in self.ifilter:
            return True
        return self.icache.contains(block)

    @property
    def demand_stats(self):
        return self.icache.stats

    # -- checkpoint/resume --------------------------------------------------
    #
    # The audit oracle is externally owned (rebuilt from the trace by the
    # harness) and deliberately NOT part of the state; the audit *log* is.

    def save_state(self) -> dict:
        from repro.common.state import save_stats, snapshot

        state = {
            "icache": self.icache.save_state(),
            "cshr": self.cshr.save_state(),
            "predictor": self.predictor.save_state(),
            "stats": save_stats(self.stats),
            "last_resolved_block": self._last_resolved_block,
        }
        if self.ifilter is not None:
            state["ifilter"] = self.ifilter.save_state()
        if self.audit is not None:
            state["audit"] = snapshot(vars(self.audit))
        return state

    def load_state(self, state: dict) -> None:
        from repro.common.state import load_list_inplace, load_stats

        self.icache.load_state(state["icache"])
        self.cshr.load_state(state["cshr"])
        self.predictor.load_state(state["predictor"])
        load_stats(self.stats, state["stats"])
        self._last_resolved_block = state["last_resolved_block"]
        if self.ifilter is not None:
            self.ifilter.load_state(state["ifilter"])
        if self.audit is not None:
            for name, saved in state["audit"].items():
                load_list_inplace(getattr(self.audit, name), saved)
