"""VVC: using dead blocks as a Virtual Victim Cache (Khan et al., PACT'10).

Instead of dedicating storage, VVC parks eviction victims in lines of
*other* sets that a dead-block predictor believes are dead.  A fetch
that misses its home set additionally probes the partner set for a
"virtual" copy and swaps it back on a hit.

The paper finds VVC actively hurts the i-cache: ~60 % of the time the
parked victims have *longer* reuse distances than the predicted-dead
lines they displace, so VVC trades live blocks for dead ones.  Our
reproduction keeps the mechanism faithful (trace-based dead-block
predictor, partner-set placement, swap-back on virtual hit) so that
this negative result emerges rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.bitops import fold_hash, mask
from repro.mem.cache import SetAssociativeCache


@dataclass
class VVCStats:
    virtual_probes: int = 0
    virtual_hits: int = 0
    virtual_inserts: int = 0
    no_dead_slot: int = 0


class DeadBlockPredictor:
    """Reference-trace dead-block predictor (Khan et al. style).

    Each block access updates a per-line *trace* (hashed accumulation of
    the access signature).  On eviction, the final trace is trained
    "dead"; on a hit, the previous trace is trained "live".  Two skewed
    tables of 2-bit counters vote.  Table IV sizes this at 15-bit trace,
    two 2^14-entry tables, 2-bit counters.
    """

    def __init__(
        self,
        trace_bits: int = 15,
        table_bits: int = 14,
        counter_bits: int = 2,
        dead_threshold: int = 4,
    ) -> None:
        self.trace_bits = trace_bits
        self.table_bits = table_bits
        self.counter_max = mask(counter_bits)
        self.dead_threshold = dead_threshold
        self.tables = [[0] * (1 << table_bits) for _ in range(2)]
        self._trace: Dict[int, int] = {}

    def _indices(self, trace: int) -> tuple[int, int]:
        return (
            fold_hash(trace ^ 0x55AA, self.table_bits),
            fold_hash(trace ^ 0x33CC, self.table_bits),
        )

    def on_access(self, block: int) -> None:
        previous = self._trace.get(block)
        if previous is not None:
            for table, idx in zip(self.tables, self._indices(previous)):
                if table[idx] > 0:
                    table[idx] -= 1  # it was reused: train live
        signature = fold_hash(block, self.trace_bits)
        updated = ((previous or 0) * 31 + signature) & mask(self.trace_bits)
        self._trace[block] = updated

    def on_evict(self, block: int) -> None:
        trace = self._trace.pop(block, None)
        if trace is None:
            return
        for table, idx in zip(self.tables, self._indices(trace)):
            if table[idx] < self.counter_max:
                table[idx] += 1  # never reused after last access: dead

    def predict_dead(self, block: int) -> bool:
        trace = self._trace.get(block)
        if trace is None:
            return True  # untouched lines are fair game
        total = sum(table[idx] for table, idx in zip(self.tables, self._indices(trace)))
        return total >= self.dead_threshold


class VirtualVictimCache:
    """Partner-set placement of victims into predicted-dead lines.

    Owns a map ``block -> partner_set`` for blocks currently living in a
    foreign set, because their home index would not find them.
    """

    def __init__(self, cache: SetAssociativeCache, predictor: Optional[DeadBlockPredictor] = None) -> None:
        self.cache = cache
        self.predictor = predictor or DeadBlockPredictor()
        self.stats = VVCStats()
        self._virtual_home: Dict[int, int] = {}

    def partner_set(self, set_index: int) -> int:
        """The receiver set for victims of ``set_index`` (flip the MSB)."""
        return set_index ^ (self.cache.config.num_sets >> 1)

    def probe_virtual(self, block: int) -> bool:
        """Check the partner set for a parked copy of ``block``."""
        self.stats.virtual_probes += 1
        if block in self._virtual_home:
            self.stats.virtual_hits += 1
            return True
        return False

    def promote(self, block: int, t: int):
        """Move a virtually-hit block back to its home set.

        Returns the home-set fill result so the caller can handle the
        displaced home-set victim (train the predictor, try to park it).
        """
        parked_set = self._virtual_home.pop(block)
        line_set = self.cache._sets[parked_set]
        line_set.remove(block)
        return self.cache.fill(block, t)

    def park_victim(self, victim: int, home_set: int, t: int) -> bool:
        """Try to park ``victim`` in a predicted-dead line of the partner set.

        Returns True when the victim found a slot.
        """
        partner = self.partner_set(home_set)
        line_set = self.cache._sets[partner]
        for candidate in line_set:
            if candidate in self._virtual_home:
                continue  # don't displace another parked victim's slot
            if self.predictor.predict_dead(candidate):
                line_set.remove(candidate)
                self.cache.policy.on_evict(partner, candidate, t)
                self._virtual_home.pop(candidate, None)
                line_set.insert_mru(victim)
                self._virtual_home[victim] = partner
                self.stats.virtual_inserts += 1
                return True
        self.stats.no_dead_slot += 1
        return False

    def forget(self, block: int) -> None:
        """Drop tracking for a parked block that got evicted naturally."""
        self._virtual_home.pop(block, None)

    def is_parked(self, block: int) -> bool:
        return block in self._virtual_home
