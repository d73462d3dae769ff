"""Bypassing-policy baselines (Sections III, IV-E; Table IV).

* :class:`AlwaysInsertScheme` — the "i-Filter only" design: every
  i-Filter victim enters the i-cache (Figure 3a's first bar).
* :class:`AccessCountBypassScheme` — Johnson et al.'s run-time cache
  bypassing applied to the i-Filter victim: compare access counters of
  the victim and its contender (Figure 3a's middle bar).
* :class:`OPTBypassScheme` — oracle admission: insert the i-Filter
  victim only when its true next use beats the contender's.
* :class:`RandomBypassScheme` — makes the oracle-correct decision with
  a fixed probability (Figure 12b's 60 %-accuracy strawman).
* :class:`DSBScheme` — dueling segmented LRU with adaptive bypassing:
  bypass fills with a probability tuned by observed outcomes; tracks
  one (bypassed, retained) pair per set.
* :class:`OBMScheme` — optimal bypass monitor: sampled incoming/victim
  pairs train a signature-indexed bypass-decision counter table.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.common.bitops import fold_hash, mask
from repro.core.ifilter import IFilter
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.oracle import NextUseOracle
from repro.mem.policies.lru import LRUPolicy


class IFilterAdmissionBase:
    """Shared skeleton: LRU i-cache + i-Filter + an admission hook.

    Subclasses override :meth:`admit` (and optionally the resolution
    hooks) to implement their policy.  This mirrors ACIC's datapath with
    the predictor swapped out, which is exactly how the paper frames
    the comparison.
    """

    name = "ifilter-base"

    def __init__(self, config: CacheConfig, ifilter_slots: int = 16) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, LRUPolicy())
        self.ifilter = IFilter(ifilter_slots)
        self.victims_considered = 0
        self.victims_admitted = 0

    # -- admission hook ---------------------------------------------------------

    def admit(self, victim: int, contender: int, t: int, cycle: int) -> bool:
        raise NotImplementedError

    def on_access(self, block: int, t: int, cycle: int) -> None:
        """Per-fetch bookkeeping hook (access counters, pair resolution)."""

    # -- L1I scheme protocol -------------------------------------------------------

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        self.on_access(block, t, cycle)
        if self.ifilter.lookup(block):
            return True
        return self.icache.lookup(block, t)

    def _handle_victim(self, victim: int, t: int, cycle: int) -> None:
        contender = self.icache.lru_contender(victim)
        if contender is None:
            self.icache.fill(victim, t)
            return
        self.victims_considered += 1
        if self.admit(victim, contender, t, cycle):
            self.victims_admitted += 1
            self.icache.fill(victim, t)

    def _fill(self, block: int, t: int, cycle: int) -> None:
        victim = self.ifilter.fill(block)
        if victim is not None:
            self._handle_victim(victim, t, cycle)

    def fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, cycle)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t, cycle)

    def contains(self, block: int) -> bool:
        return block in self.ifilter or self.icache.contains(block)


class AlwaysInsertScheme(IFilterAdmissionBase):
    """i-Filter victims always enter the i-cache (Figure 3a, first bar)."""

    name = "ifilter-always"

    def admit(self, victim: int, contender: int, t: int, cycle: int) -> bool:
        return True


class AccessCountBypassScheme(IFilterAdmissionBase):
    """Access-counter comparison (Johnson et al. [37], Figure 3a).

    A hashed table of saturating counters tracks per-block access
    frequency (a memory access table); the i-Filter victim is admitted
    only when it has been accessed at least as often as its contender.
    Counters decay periodically so stale blocks do not look hot forever.
    """

    name = "access-count"

    def __init__(
        self,
        config: CacheConfig,
        ifilter_slots: int = 16,
        table_bits: int = 12,
        counter_bits: int = 4,
        decay_interval: int = 8192,
    ) -> None:
        super().__init__(config, ifilter_slots)
        self.table_bits = table_bits
        self.counter_max = mask(counter_bits)
        self.decay_interval = decay_interval
        self.table = [0] * (1 << table_bits)
        self._accesses = 0
        self._last_block = -1

    def _count_of(self, block: int) -> int:
        return self.table[fold_hash(block, self.table_bits)]

    def on_access(self, block: int, t: int, cycle: int) -> None:
        if block == self._last_block:
            return  # count block visits, not same-block fetch groups
        self._last_block = block
        idx = fold_hash(block, self.table_bits)
        if self.table[idx] < self.counter_max:
            self.table[idx] += 1
        self._accesses += 1
        if self._accesses % self.decay_interval == 0:
            self.table = [v >> 1 for v in self.table]

    def admit(self, victim: int, contender: int, t: int, cycle: int) -> bool:
        return self._count_of(victim) >= self._count_of(contender)


class OPTBypassScheme(IFilterAdmissionBase):
    """Oracle admission (Table IV's "OPT bypass with i-Filter")."""

    name = "opt-bypass"

    def __init__(
        self, config: CacheConfig, oracle: NextUseOracle, ifilter_slots: int = 16
    ) -> None:
        super().__init__(config, ifilter_slots)
        self.oracle = oracle

    def admit(self, victim: int, contender: int, t: int, cycle: int) -> bool:
        return self.oracle.next_use_of(victim, t) < self.oracle.next_use_of(
            contender, t
        )


class RandomBypassScheme(IFilterAdmissionBase):
    """Oracle-correct with probability ``accuracy`` (Figure 12b).

    Shows that raw decision accuracy is a misleading metric: 60 %
    uniformly-random accuracy captures less than half of ACIC's MPKI
    reduction, because ACIC is accurate *where it matters*.
    """

    name = "random-bypass"

    def __init__(
        self,
        config: CacheConfig,
        oracle: NextUseOracle,
        accuracy: float = 0.6,
        seed: int = 0,
        ifilter_slots: int = 16,
    ) -> None:
        super().__init__(config, ifilter_slots)
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be a probability, got {accuracy}")
        self.oracle = oracle
        self.accuracy = accuracy
        self._rng = random.Random(seed)

    def admit(self, victim: int, contender: int, t: int, cycle: int) -> bool:
        truth = self.oracle.next_use_of(victim, t) < self.oracle.next_use_of(
            contender, t
        )
        if self._rng.random() < self.accuracy:
            return truth
        return not truth


class DSBScheme:
    """Dueling Segmented LRU with adaptive bypassing (Gao & Wilkerson).

    Incoming blocks bypass the cache with a probability chosen from a
    power-of-two ladder.  One (bypassed, retained-victim) pair per set
    duels: if the bypassed block returns first, bypassing hurt (lower
    the probability); if the retained victim is touched first, bypassing
    was right (raise it).  ``with_ifilter=True`` reproduces the paper's
    "DSB + i-Filter" variant by applying the same choice to i-Filter
    victims instead of raw misses.
    """

    #: Bypass probability ladder, most to least aggressive.
    LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0)

    def __init__(
        self,
        config: CacheConfig,
        seed: int = 0,
        with_ifilter: bool = False,
        ifilter_slots: int = 16,
    ) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, LRUPolicy())
        self.ifilter = IFilter(ifilter_slots) if with_ifilter else None
        self.name = "dsb+ifilter" if with_ifilter else "dsb"
        self._rng = random.Random(seed)
        self._ladder_index = 3  # start mid-ladder
        # Per-set duel: set_index -> (bypassed_block, retained_block).
        self._duels: Dict[int, Tuple[int, int]] = {}

    @property
    def bypass_probability(self) -> float:
        return self.LADDER[self._ladder_index]

    def _resolve_duels(self, block: int) -> None:
        set_index = self.icache.set_index(block)
        duel = self._duels.get(set_index)
        if duel is None:
            return
        bypassed, retained = duel
        if block == bypassed:
            # The bypassed block came back: bypassing was a mistake.
            if self._ladder_index < len(self.LADDER) - 1:
                self._ladder_index += 1
            del self._duels[set_index]
        elif block == retained:
            # The retained line proved useful: bypassing was right.
            if self._ladder_index > 0:
                self._ladder_index -= 1
            del self._duels[set_index]

    def _decide_fill(self, block: int, t: int) -> None:
        contender = self.icache.lru_contender(block)
        if contender is None:
            self.icache.fill(block, t)
            return
        if self._rng.random() < self.bypass_probability:
            # Bypass: the contender stays; open a duel for this set.
            self._duels.setdefault(
                self.icache.set_index(block), (block, contender)
            )
        else:
            self.icache.fill(block, t)

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        self._resolve_duels(block)
        if self.ifilter is not None and self.ifilter.lookup(block):
            return True
        return self.icache.lookup(block, t)

    def _fill(self, block: int, t: int) -> None:
        if self.ifilter is None:
            self._decide_fill(block, t)
            return
        victim = self.ifilter.fill(block)
        if victim is not None:
            self._decide_fill(victim, t)

    def fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t)

    def contains(self, block: int) -> bool:
        if self.ifilter is not None and block in self.ifilter:
            return True
        return self.icache.contains(block)


class OBMScheme:
    """Optimal Bypass Monitor (Li et al., PACT'12).

    Samples (incoming, would-be-victim) pairs into a small Replacement
    History Table; whichever is re-fetched first trains a Bypass
    Decision Counter Table indexed by the incoming block's signature.
    Fills whose signature counter favours the victim are bypassed.
    The sparse sampling (vs. ACIC's 256-entry CSHR watching *every*
    i-Filter victim) is what limits it on the instruction stream.
    """

    name = "obm"

    def __init__(
        self,
        config: CacheConfig,
        rht_entries: int = 128,
        bdct_bits: int = 10,
        counter_bits: int = 4,
        sample_period: int = 8,
    ) -> None:
        self.config = config
        self.icache = SetAssociativeCache(config, LRUPolicy())
        self.bdct_bits = bdct_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.bdct = [self.threshold] * (1 << bdct_bits)
        self.rht_entries = rht_entries
        self.sample_period = sample_period
        # RHT: block -> ("incoming"/"victim" role marker, signature).
        self._rht: Dict[int, Tuple[bool, int]] = {}
        self._fills = 0

    def _signature(self, block: int) -> int:
        return fold_hash(block, self.bdct_bits)

    def _resolve(self, block: int) -> None:
        entry = self._rht.pop(block, None)
        if entry is None:
            return
        was_incoming, signature = entry
        value = self.bdct[signature]
        if was_incoming:
            # The incoming block returned first: inserting it is right.
            if value < self.counter_max:
                self.bdct[signature] = value + 1
        elif value > 0:
            self.bdct[signature] = value - 1

    def lookup(self, block: int, t: int, cycle: int) -> bool:
        if self._rht:
            self._resolve(block)
        return self.icache.lookup(block, t)

    def _fill(self, block: int, t: int) -> None:
        contender = self.icache.lru_contender(block)
        signature = self._signature(block)
        if contender is None:
            self.icache.fill(block, t)
            return
        insert = self.bdct[signature] >= self.threshold
        self._fills += 1
        if self._fills % self.sample_period == 0 and len(self._rht) < 2 * self.rht_entries:
            # Sample this pair for training (both directions).
            if len(self._rht) >= 2 * self.rht_entries - 1:
                # Drop the oldest entries (insertion order).
                for stale in list(self._rht)[:2]:
                    del self._rht[stale]
            self._rht[block] = (True, signature)
            self._rht[contender] = (False, signature)
        if insert:
            self.icache.fill(block, t)

    def fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t)

    def prefetch_fill(self, block: int, t: int, cycle: int) -> None:
        self._fill(block, t)

    def contains(self, block: int) -> bool:
        return self.icache.contains(block)
