"""Offline analyses of the i-Filter victim / contender comparison.

Three paper artifacts live here:

* **Figure 3b** — for every i-Filter victim inserted into the i-cache,
  the difference between the incoming block's next reuse distance and
  the OPT-selected outgoing block's; ~40 % of insertions are wrong.
* **Figure 6** — how many *other* comparisons start before a given
  comparison resolves, i.e. the CSHR capacity that comparison needs;
  justifies the 256-entry CSHR.
* The random-vs-ACIC accuracy framing of Figure 12 reuses the audit
  machinery in :mod:`repro.core.flat` (:class:`~repro.core.flat.AdmissionAudit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.bitops import partial_tag
from repro.core.ifilter import IFilter
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NEVER, NextUseOracle
from repro.mem.policies.lru import LRUPolicy
from repro.workloads.trace import Trace

#: Figure 3b bucket edges for (incoming - outgoing) reuse distances.
FIG3B_EDGES = (-10000, -1000, -100, -10, 0, 10, 100, 1000, 10000)

#: Figure 6 bucket edges (number of concurrent comparisons).
FIG6_EDGES = (50, 100, 150, 200, 250, 300, 350, 400)


@dataclass
class DeltaHistogram:
    """Figure 3b: histogram of reuse-distance differences."""

    counts: List[int]           # len(FIG3B_EDGES) + 1 buckets, -inf..+inf
    wrong_insertions: int       # delta > 0: incoming reused later
    total: int

    @property
    def wrong_percent(self) -> float:
        """Paper (media streaming): 38.38 % of insertions are wrong."""
        return 100.0 * self.wrong_insertions / self.total if self.total else 0.0


def ifilter_insertion_deltas(
    trace: Trace,
    oracle: NextUseOracle,
    icache_config: CacheConfig | None = None,
    ifilter_slots: int = 16,
) -> DeltaHistogram:
    """Replay the always-insert i-Filter design and measure Figure 3b.

    For every i-Filter victim pushed into the i-cache, the *outgoing*
    block is chosen by OPT within the set (the best possible victim);
    the delta is (incoming next-use gap) − (outgoing next-use gap).
    """
    config = icache_config or CacheConfig(32 * 1024, 8, name="L1i")
    icache = SetAssociativeCache(config, LRUPolicy())
    ifilter = IFilter(ifilter_slots)
    counts = [0] * (len(FIG3B_EDGES) + 1)
    wrong = 0
    total = 0

    blocks = trace.blocks
    for t in range(len(trace)):
        block = int(blocks[t])
        if ifilter.lookup(block) or icache.lookup(block, t):
            continue
        victim = ifilter.fill(block)
        if victim is None:
            continue
        resident = icache.set_contents(icache.set_index(victim))
        if len(resident) < config.ways:
            icache.fill(victim, t)
            continue
        # OPT-selected outgoing block: furthest next use in the set.
        outgoing = max(resident, key=lambda b: oracle.next_use_of(b, t))
        d_in = oracle.next_use_of(victim, t)
        d_out = oracle.next_use_of(outgoing, t)
        d_in_gap = (d_in - t) if d_in < NEVER else NEVER
        d_out_gap = (d_out - t) if d_out < NEVER else NEVER
        if d_in_gap >= NEVER and d_out_gap >= NEVER:
            delta = 0
        elif d_in_gap >= NEVER:
            delta = FIG3B_EDGES[-1] + 1
        elif d_out_gap >= NEVER:
            delta = FIG3B_EDGES[0] - 1
        else:
            delta = d_in_gap - d_out_gap
        bucket = 0
        while bucket < len(FIG3B_EDGES) and delta >= FIG3B_EDGES[bucket]:
            bucket += 1
        counts[bucket] += 1
        total += 1
        if delta > 0:
            wrong += 1
        # Perform the insertion (always-insert design under analysis).
        icache.evict_block(outgoing, t)
        icache.fill(victim, t)

    return DeltaHistogram(counts=counts, wrong_insertions=wrong, total=total)


@dataclass
class CSHRLifetimeDistribution:
    """Figure 6: comparisons outstanding when each comparison resolves."""

    counts: List[int]      # buckets by FIG6_EDGES, final = unresolved/huge
    unresolved: int
    total: int

    def percentages(self) -> List[float]:
        if self.total == 0:
            return [0.0] * len(self.counts)
        return [100.0 * c / self.total for c in self.counts]

    def resolved_within(self, capacity: int) -> float:
        """Percent of comparisons that an ``capacity``-entry FA CSHR resolves.

        Paper: ~70 % resolve within 256 entries.
        """
        resolved = 0
        for edge, count in zip(FIG6_EDGES, self.counts):
            if edge <= capacity:
                resolved += count
        return 100.0 * resolved / self.total if self.total else 0.0


def cshr_lifetime_distribution(
    trace: Trace,
    icache_config: CacheConfig | None = None,
    ifilter_slots: int = 16,
    tag_bits: int = 12,
) -> CSHRLifetimeDistribution:
    """Replay with an *unbounded* fully-associative CSHR (Figure 6).

    For each comparison we count how many newer comparisons start before
    it resolves: that is the FA-CSHR capacity it would have needed.
    """
    config = icache_config or CacheConfig(32 * 1024, 8, name="L1i")
    icache = SetAssociativeCache(config, LRUPolicy())
    ifilter = IFilter(ifilter_slots)
    # Open comparisons: tag -> insertion serial (victim and contender
    # indexed separately, regional partial tags as in hardware).
    open_by_victim: Dict[int, List[int]] = {}
    open_by_contender: Dict[int, List[List[int]]] = {}
    serial = 0
    lifetimes: List[int] = []
    open_entries: List[List[int]] = []  # [insert_serial, victim_tag, live]

    def resolve(entry: List[int]) -> None:
        entry[2] = 0
        lifetimes.append(serial - entry[0])

    blocks = trace.blocks
    last_block = -1
    for t in range(len(trace)):
        block = int(blocks[t])
        if block != last_block:
            last_block = block
            tag = partial_tag(block, tag_bits)
            victims = open_by_victim.pop(tag, None)
            if victims:
                for idx in victims:
                    if open_entries[idx][2]:
                        resolve(open_entries[idx])
            contenders = open_by_contender.pop(tag, None)
            if contenders:
                for entry in contenders:
                    if entry[2]:
                        resolve(entry)
        if ifilter.lookup(block) or icache.lookup(block, t):
            continue
        victim = ifilter.fill(block)
        if victim is None:
            continue
        contender = icache.lru_contender(victim)
        icache.fill(victim, t)
        if contender is None:
            continue
        v_tag = partial_tag(victim, tag_bits)
        c_tag = partial_tag(contender, tag_bits)
        entry = [serial, v_tag, 1]
        open_entries.append(entry)
        open_by_victim.setdefault(v_tag, []).append(len(open_entries) - 1)
        open_by_contender.setdefault(c_tag, []).append(entry)
        serial += 1

    unresolved = sum(1 for e in open_entries if e[2])
    counts = [0] * (len(FIG6_EDGES) + 1)
    for life in lifetimes:
        bucket = 0
        while bucket < len(FIG6_EDGES) and life > FIG6_EDGES[bucket]:
            bucket += 1
        counts[bucket] += 1
    counts[-1] += unresolved
    return CSHRLifetimeDistribution(
        counts=counts, unresolved=unresolved, total=serial
    )
