"""The ACIC controller: i-Filter + CSHR + admission predictor (Figures 2-8).

:class:`FlatACICScheme` implements the L1I-scheme protocol the timing
engine drives (``lookup`` / ``fill`` / ``prefetch_fill`` /
``contains``): demand fetches resolve the CSHR comparisons they settle
and probe the i-Filter and i-cache in parallel; misses fill the
i-Filter only; an i-Filter victim is admitted into the i-cache (or
dropped) by the predictor against its set's LRU contender, and a CSHR
entry records the comparison so its outcome can train the predictor.

Constructor flags expose the paper's ACIC ablations: ``use_ifilter``
(Figure 17's "no i-Filter"), the predictor variants (global-history /
bimodal), the unresolved-entry training policy, and the
parallel-vs-instant PT update mode (Figure 14).  An optional
``audit_oracle`` records decision ground truth for Figures 12a/13 in an
:class:`AdmissionAudit`.  The "i-Filter only" design (Figure 3a, which
admits every victim and keeps no CSHR) is its own scheme,
:class:`repro.baselines.bypass.AlwaysInsertScheme`.

The per-record work is fused into one ``lookup`` body with no
intermediate method dispatch:

* CSHR comparisons resolve against :class:`~repro.core.cshr.FlatCSHR`'s
  parallel tag lists, guarded by its per-set tag counts so the common
  no-match transition costs one dict probe (``lookup`` and
  ``_resolve_matches`` are the only CSHR search, ``_admission_decision``
  the only CSHR insert; both keep the counts);
* the i-Filter probe is the backing dict's pop/reinsert, inlined;
* the i-cache probe reaches the per-set line dicts directly (the i-cache
  policy is LRU, whose on-hit callback is a declared no-op);
* repeat-block fetch groups skip the comparison search entirely (the
  hardware compares once per block transition) — here the check is the
  first branch of the fused body.

The miss path (i-Filter fills, admission decisions, predictor training)
keeps ordinary method calls: it runs orders of magnitude less often, and
dynamic dispatch is what lets ablations swap predictors — including the
registry's frozen-``train`` variant — without touching this module.

The readable one-method-per-step controller lives test-side, in
``tests/reference/acic.py``; ``tests/test_acic_differential.py`` locks
this implementation to it over randomized schedules and the full
registered-variant grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.bitops import L1I_SET_BITS, mask
from repro.core.cshr import FlatCSHR
from repro.core.ifilter import IFilter
from repro.core.predictor import AdmissionPredictor, TwoLevelAdmissionPredictor
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NEVER, NextUseOracle
from repro.mem.policies.lru import LRUPolicy

#: Sentinel distinguishing "absent" from a stored ``None`` payload.
_ABSENT = object()


@dataclass
class AdmissionAudit:
    """Ground-truth log of admission decisions (Figure 12a/13).

    Each decision records whether ACIC admitted the victim, and the
    oracle reuse distances (in trace records) of the victim and the
    contender at decision time.
    """

    admitted: List[bool] = field(default_factory=list)
    victim_distance: List[int] = field(default_factory=list)
    contender_distance: List[int] = field(default_factory=list)

    def accuracy(self, distance_cap: Optional[int] = None) -> float:
        """Fraction of correct decisions among decisions that *matter*.

        A decision matters when the two reuse distances differ and, if
        ``distance_cap`` is given, when ``min(d_v, d_c) < distance_cap``
        (Figure 12a's bucketing: accuracy only counts when at least one
        block would plausibly be re-accessed while cached).
        """
        correct = considered = 0
        for admit, d_v, d_c in zip(
            self.admitted, self.victim_distance, self.contender_distance
        ):
            if d_v == d_c:
                continue
            if distance_cap is not None and min(d_v, d_c) >= distance_cap:
                continue
            considered += 1
            if admit == (d_v < d_c):
                correct += 1
        return correct / considered if considered else 0.0

    def __len__(self) -> int:
        return len(self.admitted)


@dataclass
class ACICStats:
    victims_considered: int = 0
    victims_admitted: int = 0
    free_way_fills: int = 0
    benefit_of_doubt_trainings: int = 0

    @property
    def admission_rate(self) -> float:
        """Figure 13's metric: fraction of i-Filter victims admitted."""
        if not self.victims_considered:
            return 0.0
        return self.victims_admitted / self.victims_considered


def _uncount(counts: Dict[int, int], tag: int) -> None:
    """Take one entry of ``tag`` out of a CSHR set's tag counts."""
    left = counts[tag] - 1
    if left:
        counts[tag] = left
    else:
        del counts[tag]


class FlatACICScheme:
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
        cshr: Optional[FlatCSHR] = None,
        tag_bits: int = 12,
        use_ifilter: bool = True,
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
        self.ifilter = IFilter(ifilter_slots) if use_ifilter else None
        self.cshr = cshr or FlatCSHR(
            tag_bits=tag_bits, icache_set_bits=self.config.set_index_bits
        )
        self.tag_bits = tag_bits
        self.unresolved_policy = unresolved_policy
        self.audit_oracle = audit_oracle
        self.audit = AdmissionAudit() if audit_oracle is not None else None
        self.stats = ACICStats()
        self._last_resolved_block = -1
        # The flat internals the fused paths index directly.  Their
        # owners mutate each in place (the i-cache policy is LRU, which
        # never rebuilds a set's dict), and a pickle keeps the aliases.
        self._ic_stats = self.icache.stats
        self._ic_lines = self.icache.line_dicts()
        self._ic_set_mask = self.icache._set_mask
        if self.ifilter is not None:
            self._if_lines = self.ifilter._buffer._lines
            self._if_stats = self.ifilter.stats
            self._if_slots = self.ifilter.slots
        else:
            self._if_lines = None
            self._if_stats = None
            self._if_slots = 0
        self._ic_ways = self.config.ways
        self._cshr_vt = self.cshr._victim_tags
        self._cshr_ct = self.cshr._contender_tags
        self._cshr_counts = self.cshr._tag_counts
        self._cshr_stats = self.cshr.stats
        self._cshr_shift = self.cshr._set_shift
        self._cshr_ways = self.cshr.ways
        self._cshr_tag_mask = mask(self.cshr.tag_bits)
        self._tag_mask = mask(self.tag_bits)

    # -- CSHR resolution (cold half) -------------------------------------------

    def _resolve_matches(self, si: int, tag: int, cycle: int) -> None:
        """Settle the matched entries of CSHR set ``si`` (tag is known present).

        Training order matches the readable reference: the victim match
        (the oldest entry whose victim tag matches, at most one) first,
        then contender matches in entry order.
        """
        vt = self._cshr_vt[si]
        ct = self._cshr_ct[si]
        counts = self._cshr_counts[si]
        stats = self._cshr_stats
        train = self.predictor.train
        if tag in vt:
            i = vt.index(tag)
            del vt[i]
            _uncount(counts, tag)
            _uncount(counts, ct.pop(i))
            stats.victim_resolutions += 1
            train(tag, True, cycle)
        contender_victims = []
        while tag in ct:
            i = ct.index(tag)
            del ct[i]
            victim = vt.pop(i)
            _uncount(counts, tag)
            _uncount(counts, victim)
            contender_victims.append(victim)
        if contender_victims:
            stats.contender_resolutions += len(contender_victims)
            for v in contender_victims:
                train(v, False, cycle)

    # -- admission (miss path) -------------------------------------------------

    def _icache_fill(self, block: int) -> None:
        """Demand fill with the LRU policy inlined.

        Semantics of :meth:`SetAssociativeCache.fill` specialised to the
        LRU policy this scheme always installs: the victim is the
        recency head, no bypass, all policy callbacks are no-ops, and an
        already-present block is just re-promoted (no fill counted).
        """
        lines = self._ic_lines[block & self._ic_set_mask]
        if block in lines:
            del lines[block]
            lines[block] = None  # promote to MRU
            return
        stats = self._ic_stats
        if len(lines) >= self._ic_ways:
            victim = next(iter(lines))
            del lines[victim]
            stats.evictions += 1
        lines[block] = None
        stats.demand_fills += 1

    def _admission_decision(self, victim: int, t: int, cycle: int) -> None:
        lines = self._ic_lines[victim & self._ic_set_mask]
        if len(lines) < self._ic_ways:
            # Free way available: no contender, no comparison to learn from.
            self._icache_fill(victim)
            self.stats.free_way_fills += 1
            return
        contender = next(iter(lines))  # the LRU line (dict head)

        victim_tag = (victim >> L1I_SET_BITS) & self._tag_mask
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
            self._icache_fill(victim)

        # Open the comparison regardless of the decision: the predictor
        # learns from the outcome either way.
        si = (victim & self._ic_set_mask) >> self._cshr_shift
        vt = self._cshr_vt[si]
        ct = self._cshr_ct[si]
        counts = self._cshr_counts[si]
        cshr_stats = self._cshr_stats
        cshr_stats.inserts += 1
        evicted = None
        if len(vt) >= self._cshr_ways:
            evicted = vt.pop(0)
            _uncount(counts, evicted)
            _uncount(counts, ct.pop(0))
            cshr_stats.unresolved_evictions += 1
        cshr_tag_mask = self._cshr_tag_mask
        victim_tag = (victim >> L1I_SET_BITS) & cshr_tag_mask
        contender_tag = (contender >> L1I_SET_BITS) & cshr_tag_mask
        vt.append(victim_tag)
        ct.append(contender_tag)
        counts[victim_tag] = counts.get(victim_tag, 0) + 1
        counts[contender_tag] = counts.get(contender_tag, 0) + 1
        if evicted is not None and self.unresolved_policy != "none":
            self.predictor.train(
                evicted, self.unresolved_policy == "victim", cycle
            )
            self.stats.benefit_of_doubt_trainings += 1

    # -- L1I scheme protocol (fused hot path) ----------------------------------

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        if block != self._last_resolved_block:
            self._last_resolved_block = block
            si = (block & self._ic_set_mask) >> self._cshr_shift
            tag = (block >> L1I_SET_BITS) & self._cshr_tag_mask
            if tag in self._cshr_counts[si]:
                self._resolve_matches(si, tag, cycle)
        if_lines = self._if_lines
        if if_lines is not None:
            if_stats = self._if_stats
            if_stats.lookups += 1
            value = if_lines.pop(block, _ABSENT)
            if value is not _ABSENT:
                if_lines[block] = value  # refresh recency (MRU)
                if_stats.hits += 1
                return True
        ic_stats = self._ic_stats
        ic_stats.demand_accesses += 1
        lines = self._ic_lines[block & self._ic_set_mask]
        value = lines.pop(block, _ABSENT)
        if value is _ABSENT:
            return False
        lines[block] = value
        ic_stats.demand_hits += 1
        return True

    def repeat_hits(self, block: int, count: int, last_t: int) -> None:
        """``count`` more hits on the block the last lookup hit.

        The block is already most recent where it sits and is already
        ``_last_resolved_block``, so those lookups touch no CSHR entry
        and move only the i-Filter or i-cache hit counters.
        """
        if_lines = self._if_lines
        if if_lines is not None:
            if_stats = self._if_stats
            if_stats.lookups += count
            if block in if_lines:
                if_stats.hits += count
                return
        ic_stats = self._ic_stats
        ic_stats.demand_accesses += count
        ic_stats.demand_hits += count

    def fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, cycle)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, cycle)

    def _fill(self, block: int, t: int, cycle: int) -> None:
        if_lines = self._if_lines
        if if_lines is None:
            self._admission_decision(block, t, cycle)
            return
        if_stats = self._if_stats
        if_stats.fills += 1
        if block in if_lines:
            del if_lines[block]
            if_lines[block] = None  # reinsert at MRU
            return
        if len(if_lines) >= self._if_slots:
            victim = next(iter(if_lines))
            del if_lines[victim]
            if_lines[block] = None
            if_stats.victims += 1
            self._admission_decision(victim, t, cycle)
        else:
            if_lines[block] = None

    def contains(self, block: int) -> bool:
        if_lines = self._if_lines
        if if_lines is not None and block in if_lines:
            return True
        return block in self._ic_lines[block & self._ic_set_mask]
