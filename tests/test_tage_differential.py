"""TAGE with folded-history registers vs the readable chunk-XOR fold.

:class:`~repro.frontend.branch_predictors.TagePredictor` keeps one
index and one tag folded-history register per table and updates them
incrementally at each history push.  :class:`ReferenceTage` below is the
readable twin: it re-folds the most recent ``L`` history bits in
``w``-bit chunks on every lookup, as TAGE is usually described.  The
two are run in lockstep over random branch streams and must agree on
every prediction and on every bit of predictor state.

The last test pins the change at production size: ``build_plan`` must
reproduce the committed 160k-record plans bit for bit.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest

from repro.common.bitops import fold_hash, mask
from repro.frontend.branch_predictors import BimodalPredictor, TagePredictor

REPO = Path(__file__).resolve().parents[1]


class _RefEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self, tag: int, counter: int) -> None:
        self.tag = tag
        self.counter = counter
        self.useful = 0


class ReferenceTage:
    """TAGE that folds the global history from scratch on every lookup."""

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
        ratio = (max_history / min_history) ** (1 / max(1, num_tables - 1))
        self.history_lengths = [
            max(1, round(min_history * ratio**i)) for i in range(num_tables)
        ]
        self.tables: List[List[Optional[_RefEntry]]] = [
            [None] * (1 << table_bits) for _ in range(num_tables)
        ]
        self.base = BimodalPredictor(table_bits=12, counter_bits=2)
        self.ghr = 0

    def _fold_history(self, length: int, bits: int) -> int:
        """Fold the most recent ``length`` history bits down to ``bits``."""
        h = self.ghr & mask(length)
        folded = 0
        while h:
            folded ^= h & mask(bits)
            h >>= bits
        return folded

    def _index(self, table: int, site: int) -> int:
        folded = self._fold_history(self.history_lengths[table], self.table_bits)
        return fold_hash(site ^ (folded << 1) ^ table, self.table_bits)

    def _tag(self, table: int, site: int) -> int:
        folded = self._fold_history(self.history_lengths[table], self.tag_bits)
        return fold_hash(site ^ (folded << 3) ^ (table << 7), self.tag_bits)

    def _provider(self, site: int):
        for table in range(self.num_tables - 1, -1, -1):
            idx = self._index(table, site)
            entry = self.tables[table][idx]
            if entry is not None and entry.tag == self._tag(table, site):
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
            table, _, entry = provider
            prediction = entry.counter >= self.threshold
        else:
            table, entry = -1, None
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
        self.base.update(site, taken)
        if not correct:
            for t in range(table + 1, self.num_tables):
                idx = self._index(t, site)
                blocker = self.tables[t][idx]
                if blocker is None or blocker.useful == 0:
                    counter = self.threshold if taken else self.threshold - 1
                    self.tables[t][idx] = _RefEntry(self._tag(t, site), counter)
                    break
                blocker.useful -= 1
        self.ghr = ((self.ghr << 1) | int(taken)) & mask(1024)
        return prediction


#: (kwargs, updates).  The default geometry has a span equal to the
#: index width (10 mod 10 == 0); the small one folds every span many
#: times over; the long one reaches past the 1024-bit history register.
GEOMETRIES = [
    ({}, 3000),
    (
        dict(num_tables=6, table_bits=6, tag_bits=5, min_history=2, max_history=200),
        3000,
    ),
    (
        dict(num_tables=3, table_bits=9, tag_bits=8, min_history=8, max_history=1100),
        1500,
    ),
]


def _stream(seed: int, n: int):
    """(site, taken) pairs: biased, periodic and random sites, some of
    them aliasing in every table (a small site pool over small tables)."""
    rng = random.Random(seed)
    sites = [rng.randrange(1 << 20) for _ in range(48)] + list(range(16))
    bias = {s: rng.random() for s in sites}
    period = {s: rng.randrange(2, 9) for s in sites}
    out = []
    for k in range(n):
        site = rng.choice(sites)
        roll = rng.random()
        if roll < 0.4:
            taken = rng.random() < bias[site]
        elif roll < 0.8:
            taken = (k // period[site]) % 2 == 0
        else:
            taken = rng.random() < 0.5
        out.append((site, taken))
    return out


def _assert_same_state(fast: TagePredictor, ref: ReferenceTage) -> None:
    assert fast.ghr == ref.ghr
    assert fast.history_lengths == ref.history_lengths
    for t, (fast_table, ref_table) in enumerate(zip(fast.tables, ref.tables)):
        for i, (a, b) in enumerate(zip(fast_table, ref_table)):
            if a is None or b is None:
                assert a is None and b is None, (t, i)
            else:
                assert (a.tag, a.counter, a.useful) == (
                    b.tag, b.counter, b.useful
                ), (t, i)
    assert fast.base.table == ref.base.table


def _lockstep(fast, ref, stream, check_every: int = 250) -> None:
    for k, (site, taken) in enumerate(stream):
        expected = ref.predict(site)
        assert fast.predict(site) == expected, k
        assert fast.update(site, taken) == expected, k
        assert ref.update(site, taken) == expected, k
        if k % check_every == 0:
            _assert_same_state(fast, ref)
    _assert_same_state(fast, ref)


@pytest.mark.parametrize("geometry,updates", GEOMETRIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_lockstep_with_reference(geometry, updates, seed):
    fast, ref = TagePredictor(**geometry), ReferenceTage(**geometry)
    _lockstep(fast, ref, _stream(seed, updates))


@pytest.mark.parametrize("workload", ["media-streaming", "web-search"])
def test_build_plan_reproduces_committed_160k_plan(workload):
    """The committed plans were built with the chunk-XOR fold; the
    register-based predictor must rebuild them bit for bit."""
    from repro.common.artifacts import entry_name
    from repro.frontend.plan import (
        PLAN_ARRAY_FIELDS,
        FrontendPlan,
        build_plan,
        frontend_fingerprint,
    )
    from repro.uarch.params import DEFAULT_MACHINE
    from repro.workloads.profiles import get_workload
    from repro.workloads.trace import Trace

    profile = get_workload(workload)
    trace = Trace.load(
        REPO / ".cache" / "traces" / f"{workload}-r160000-s{profile.seed}.npz"
    )
    fingerprint = frontend_fingerprint(trace, DEFAULT_MACHINE, "fdp")
    committed = FrontendPlan.load(
        REPO / ".cache" / "plans" / f"{entry_name(trace.name, fingerprint)}.npz"
    )
    rebuilt = build_plan(trace, DEFAULT_MACHINE, "fdp")
    assert rebuilt.fingerprint == committed.fingerprint
    for name in PLAN_ARRAY_FIELDS:
        assert np.array_equal(getattr(rebuilt, name), getattr(committed, name)), name
