"""Conditional branch direction predictors: bimodal and TAGE.

Table II's machine uses TAGE [Seznec & Michaud]; the bimodal predictor
is its fallback base component.

All predictors share one interface: ``predict(site) -> bool`` then
``update(site, taken) -> bool``, which trains on the resolved outcome
and returns the prediction it trained (what ``predict`` answered just
before).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.bitops import _GOLDEN64, _MASK64, fold_hash, mask

#: TAGE's global history register width; no table reaches further back.
_GHR_BITS = 1024
_GHR_MASK = mask(_GHR_BITS)


class BimodalPredictor:
    """Per-site 2-bit saturating counters, no history."""

    def __init__(self, table_bits: int = 13, counter_bits: int = 2) -> None:
        self.table_bits = table_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        self.table = [self.threshold] * (1 << table_bits)

    def predict(self, site: int) -> bool:
        return self.table[fold_hash(site, self.table_bits)] >= self.threshold

    def update(self, site: int, taken: bool) -> bool:
        idx = fold_hash(site, self.table_bits)
        prediction = self.table[idx] >= self.threshold
        if taken:
            if self.table[idx] < self.counter_max:
                self.table[idx] += 1
        elif self.table[idx] > 0:
            self.table[idx] -= 1
        return prediction


def _push_folds(folds: List[int], geometry, old_history: int, bit: int) -> List[int]:
    """The registers after ``bit`` is pushed onto ``old_history``.

    Each rotates left by one (every outcome ages by one), takes the new
    outcome in at bit 0 and drops the one leaving its span, which the
    rotation just moved to bit ``span mod width``.
    """
    return [
        (((f << 1) & width_mask) | (f >> top))
        ^ bit
        ^ (((old_history >> oldest) & 1) << out)
        for f, (top, width_mask, oldest, out) in zip(folds, geometry)
    ]


class _TageEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self, tag: int, counter: int) -> None:
        self.tag = tag
        self.counter = counter
        self.useful = 0


class TagePredictor:
    """A compact TAGE: bimodal base + N partially-tagged geometric tables.

    Faithful to the TAGE structure (geometric history lengths, tagged
    components, provider/altpred selection, useful counters, allocation
    on mispredict) while staying small enough for a Python hot loop.

    Each table hashes its history through two *folded-history
    registers*, one ``table_bits`` wide for the index and one
    ``tag_bits`` wide for the tag, kept as TAGE hardware keeps them:
    circular shift registers updated at every history push, never
    re-folded per lookup.  Register ``w`` bits wide over the last ``L``
    outcomes holds the outcome of age ``a < L`` XORed in at bit
    ``a mod w`` — the same value as XOR-ing the ``L``-bit history
    together in ``w``-bit chunks.  ``ghr`` stays the architectural
    history; the registers are derived from it.
    """

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 10,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 64,
        counter_bits: int = 3,
    ) -> None:
        self.num_tables = num_tables
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.counter_max = mask(counter_bits)
        self.threshold = (self.counter_max + 1) // 2
        # Geometric history lengths between min and max.
        ratio = (max_history / min_history) ** (1 / max(1, num_tables - 1))
        self.history_lengths = [
            max(1, round(min_history * ratio**i)) for i in range(num_tables)
        ]
        self.tables: List[List[Optional[_TageEntry]]] = [
            [None] * (1 << table_bits) for _ in range(num_tables)
        ]
        self.base = BimodalPredictor(table_bits=12, counter_bits=2)
        self.ghr = 0
        # Lookup order: longest history first.
        self._tables_desc = tuple(range(num_tables - 1, -1, -1))
        self._index_shift = 64 - table_bits
        self._tag_shift = 64 - tag_bits
        # Per table and register width: (width - 1, width mask, age of
        # the oldest outcome in the span, bit where the outcome leaving
        # the span sits after a push).
        spans = [min(length, _GHR_BITS) for length in self.history_lengths]
        self._index_geometry = self._fold_geometry(table_bits, spans)
        self._tag_geometry = self._fold_geometry(tag_bits, spans)
        # An empty history folds to zero in every register.
        self._index_folds = [0] * num_tables
        self._tag_folds = [0] * num_tables

    @staticmethod
    def _fold_geometry(width: int, spans: List[int]):
        return tuple(
            (width - 1, mask(width), span - 1, span % width) for span in spans
        )

    def _push_history(self, taken: bool) -> None:
        """Shift one outcome into ``ghr`` and every folded register."""
        old = self.ghr
        bit = 1 if taken else 0
        self.ghr = ((old << 1) | bit) & _GHR_MASK
        self._index_folds = _push_folds(
            self._index_folds, self._index_geometry, old, bit
        )
        self._tag_folds = _push_folds(self._tag_folds, self._tag_geometry, old, bit)

    def _index(self, table: int, site: int) -> int:
        v = site ^ (self._index_folds[table] << 1) ^ table
        return ((v * _GOLDEN64) & _MASK64) >> self._index_shift

    def _tag(self, table: int, site: int) -> int:
        v = site ^ (self._tag_folds[table] << 3) ^ (table << 7)
        return ((v * _GOLDEN64) & _MASK64) >> self._tag_shift

    def _provider(self, site: int):
        """Longest-history matching component, or None.

        :meth:`_index` and :meth:`_tag` inlined: this runs once per
        verdict and once per training step.
        """
        tables = self.tables
        index_folds = self._index_folds
        tag_folds = self._tag_folds
        index_shift = self._index_shift
        for table in self._tables_desc:
            idx = (
                ((site ^ (index_folds[table] << 1) ^ table) * _GOLDEN64) & _MASK64
            ) >> index_shift
            entry = tables[table][idx]
            if entry is not None and entry.tag == (
                ((site ^ (tag_folds[table] << 3) ^ (table << 7)) * _GOLDEN64)
                & _MASK64
            ) >> self._tag_shift:
                return table, idx, entry
        return None

    def predict(self, site: int) -> bool:
        provider = self._provider(site)
        if provider is not None:
            return provider[2].counter >= self.threshold
        return self.base.predict(site)

    def update(self, site: int, taken: bool) -> bool:
        provider = self._provider(site)
        if provider is not None:
            table, idx, entry = provider
            prediction = entry.counter >= self.threshold
        else:
            table, idx, entry = -1, -1, None
            prediction = self.base.predict(site)
        correct = prediction == taken

        if entry is not None:
            if taken:
                if entry.counter < self.counter_max:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1
            if correct and entry.useful < 3:
                entry.useful += 1
            elif not correct and entry.useful > 0:
                entry.useful -= 1
        # The base predictor always trains (it is the fallback).
        self.base.update(site, taken)

        if not correct:
            self._allocate(site, taken, from_table=table + 1)

        self._push_history(taken)
        return prediction

    def _allocate(self, site: int, taken: bool, from_table: int) -> None:
        """On mispredict, claim an entry in a longer-history table."""
        for table in range(from_table, self.num_tables):
            idx = self._index(table, site)
            entry = self.tables[table][idx]
            if entry is None or entry.useful == 0:
                counter = self.threshold if taken else self.threshold - 1
                self.tables[table][idx] = _TageEntry(self._tag(table, site), counter)
                return
            entry.useful -= 1  # age the blocker; try the next table
