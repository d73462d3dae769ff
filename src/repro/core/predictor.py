"""ACIC's admission predictors (Section III-A, Figure 4).

The default is the two-level structure borrowed from two-level branch
prediction [Yeh & Patt]:

* **HRT** (comparison History Register Table): 1024 entries x 4-bit
  history registers, indexed by a hash of the i-Filter victim's partial
  tag.  Each bit records one past comparison outcome for blocks mapping
  to that entry (1 = the victim was re-accessed before its contender).
* **PT** (Pattern Table): 2^4 = 16 entries x 5-bit saturating counters,
  indexed by the history pattern.  The counter's MSB decides admission.

Training order follows Section III-C2: the PT counter indexed by the
*current* history is updated first; the history register then shifts in
the outcome.  With the ``parallel`` update mode the PT update flows
through a 10-slot per-entry queue and becomes visible 2+ cycles later
(Figure 8/14); ``instant`` applies it immediately.

Figure 17's ablation variants are also here: a *global-history*
predictor (one shared history register instead of the HRT) and a
*bimodal* predictor (per-victim counters, no history at all).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.common.bitops import _GOLDEN64, _MASK64, fold_hash, mask

_NEVER = float("inf")


@dataclass
class AdmissionStats:
    predictions: int = 0
    admits: int = 0
    trainings: int = 0
    queue_drops: int = 0


class AdmissionPredictor(ABC):
    """Decides whether an i-Filter victim should enter the i-cache."""

    name = "base"

    @abstractmethod
    def predict(self, victim_ptag: int, now: int = 0) -> bool:
        """True = admit the victim (replace the contender).

        ``victim_ptag`` is the victim's *partial tag* (Section III-C1:
        the partial tag, not the full block address, indexes the HRT).
        """

    @abstractmethod
    def train(self, victim_ptag: int, victim_won: bool, now: int = 0) -> None:
        """Record a resolved comparison for the victim's history."""


class TwoLevelAdmissionPredictor(AdmissionPredictor):
    """The HRT + PT structure of Figure 4."""

    name = "two-level"

    def __init__(
        self,
        hrt_entries: int = 1024,
        history_bits: int = 4,
        counter_bits: int = 5,
        tag_bits: int = 12,
        update_mode: str = "parallel",
        queue_slots: int = 10,
        update_latency: int = 2,
    ) -> None:
        if update_mode not in ("parallel", "instant"):
            raise ValueError(f"unknown update mode {update_mode!r}")
        self.hrt_bits = hrt_entries.bit_length() - 1
        if (1 << self.hrt_bits) != hrt_entries:
            raise ValueError(f"hrt_entries must be a power of two: {hrt_entries}")
        self.history_bits = history_bits
        self.history_mask = mask(history_bits)
        self.counter_bits = counter_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.tag_bits = tag_bits
        self.update_mode = update_mode
        self.queue_slots = queue_slots
        self.update_latency = update_latency

        self.hrt = [0] * hrt_entries
        self.pt = [self.threshold] * (1 << history_bits)
        # Per-PT-entry update queues: (ready_cycle, up?) FIFOs.
        self._queues: List[Deque[Tuple[int, bool]]] = [
            deque() for _ in range(1 << history_bits)
        ]
        # Hot-path precomputation: the fold_hash shift (inlined in
        # predict/train) and the earliest ready cycle among the queue
        # heads, so predict walks the queues only once an update is due.
        self._hash_shift = 64 - self.hrt_bits
        self._next_due = _NEVER
        self.stats = AdmissionStats()

    # -- indexing -------------------------------------------------------------

    def _hrt_index(self, victim_ptag: int) -> int:
        """Hash the victim's partial tag into the HRT (Section III-C1)."""
        return fold_hash(victim_ptag, self.hrt_bits)

    # -- queue draining ----------------------------------------------------------

    def _drain(self, now: int) -> None:
        """Apply queued PT updates that have become visible by ``now``.

        One update per PT entry retires per cycle; our event-driven
        caller may advance many cycles between calls, so we drain every
        ready update.  Afterwards ``_next_due`` is the earliest head left.
        """
        pt = self.pt
        counter_max = self.counter_max
        next_due = _NEVER
        for idx, queue in enumerate(self._queues):
            while queue and queue[0][0] <= now:
                _, up = queue.popleft()
                value = pt[idx]
                if up:
                    if value < counter_max:
                        pt[idx] = value + 1
                elif value > 0:
                    pt[idx] = value - 1
            if queue and queue[0][0] < next_due:
                next_due = queue[0][0]
        self._next_due = next_due

    # -- AdmissionPredictor interface -----------------------------------------------

    def predict(self, victim_ptag: int, now: int = 0) -> bool:
        if now >= self._next_due:
            self._drain(now)
        self.stats.predictions += 1
        history = self.hrt[
            ((victim_ptag * _GOLDEN64) & _MASK64) >> self._hash_shift
        ]
        admit = self.pt[history] >= self.threshold
        if admit:
            self.stats.admits += 1
        return admit

    def train(self, victim_ptag: int, victim_won: bool, now: int = 0) -> None:
        self.stats.trainings += 1
        hrt_index = ((victim_ptag * _GOLDEN64) & _MASK64) >> self._hash_shift
        history = self.hrt[hrt_index]
        if self.update_mode == "instant":
            value = self.pt[history]
            if victim_won:
                if value < self.counter_max:
                    self.pt[history] = value + 1
            elif value > 0:
                self.pt[history] = value - 1
        else:
            queue = self._queues[history]
            if len(queue) >= self.queue_slots:
                self.stats.queue_drops += 1  # overflow: drop the update
            else:
                # Visibility delayed by the HRT-then-PT pipeline plus any
                # queue backlog (one retire per cycle per entry).
                ready = now + self.update_latency + len(queue)
                if not queue and ready < self._next_due:
                    self._next_due = ready  # a new queue head
                queue.append((ready, victim_won))
        # History shifts after its value was handed to the PT updater.
        self.hrt[hrt_index] = (
            (history << 1) | (1 if victim_won else 0)
        ) & self.history_mask


class GlobalHistoryAdmissionPredictor(AdmissionPredictor):
    """Figure 17 ablation: one global history register, shared by all blocks.

    Loses the per-block pattern separation that the HRT provides — the
    outcome history of unrelated victims interleaves in one register.
    """

    name = "global-history"

    def __init__(self, history_bits: int = 4, counter_bits: int = 5) -> None:
        self.history_mask = mask(history_bits)
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.history = 0
        self.pt = [self.threshold] * (1 << history_bits)
        self.stats = AdmissionStats()

    def predict(self, victim_ptag: int, now: int = 0) -> bool:
        self.stats.predictions += 1
        admit = self.pt[self.history] >= self.threshold
        if admit:
            self.stats.admits += 1
        return admit

    def train(self, victim_ptag: int, victim_won: bool, now: int = 0) -> None:
        self.stats.trainings += 1
        value = self.pt[self.history]
        if victim_won:
            if value < self.counter_max:
                self.pt[self.history] = value + 1
        elif value > 0:
            self.pt[self.history] = value - 1
        self.history = ((self.history << 1) | (1 if victim_won else 0)) & self.history_mask


class BimodalAdmissionPredictor(AdmissionPredictor):
    """Figure 17 ablation: per-victim saturating counters, no history.

    Equivalent to asking "did this block's victims tend to win?" without
    any pattern information.
    """

    name = "bimodal"

    def __init__(
        self, table_entries: int = 1024, counter_bits: int = 5, tag_bits: int = 12
    ) -> None:
        self.table_bits = table_entries.bit_length() - 1
        if (1 << self.table_bits) != table_entries:
            raise ValueError(f"table_entries must be a power of two: {table_entries}")
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.tag_bits = tag_bits
        self.table = [self.threshold] * table_entries
        self.stats = AdmissionStats()

    def _index(self, victim_ptag: int) -> int:
        return fold_hash(victim_ptag, self.table_bits)

    def predict(self, victim_ptag: int, now: int = 0) -> bool:
        self.stats.predictions += 1
        admit = self.table[self._index(victim_ptag)] >= self.threshold
        if admit:
            self.stats.admits += 1
        return admit

    def train(self, victim_ptag: int, victim_won: bool, now: int = 0) -> None:
        self.stats.trainings += 1
        idx = self._index(victim_ptag)
        value = self.table[idx]
        if victim_won:
            if value < self.counter_max:
                self.table[idx] = value + 1
        elif value > 0:
            self.table[idx] = value - 1
