"""Unit tests for the entangling prefetcher's table mechanics.

Before these, the table (source selection, entangle/append/evict,
candidate issue) was only exercised end-to-end through ``simulate``;
here every mechanism is pinned in isolation, on hand-built histories,
so a regression points at the responsible method instead of a drifted
20k-grid scalar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend.entangling import EntanglingPrefetcher
from repro.workloads.trace import Trace
from reference.state import ordered


def make_trace(blocks):
    n = len(blocks)
    return Trace(
        name="ent-table",
        blocks=np.asarray(blocks, dtype=np.int64),
        instrs=np.full(n, 4, dtype=np.uint8),
        branch_kind=np.zeros(n, dtype=np.uint8),
        branch_site=np.full(n, -1, dtype=np.int64),
    )


def make_pf(blocks=(1, 2, 3), **kwargs):
    kwargs.setdefault("latency_estimate", 10)
    return EntanglingPrefetcher(make_trace(list(blocks)), **kwargs)


class TestSourceSelection:
    def test_latest_timely_fetch_wins(self):
        pf = make_pf()
        pf.observe_fetch(1, 0)
        pf.observe_fetch(2, 5)
        pf.observe_fetch(3, 12)
        # At cycle 20: block 1 (20 back) and 2 (15 back) are timely,
        # block 3 (8 back) is not.  The *latest* timely fetch wins.
        assert pf._select_source(99, 20) == 2

    def test_no_fetch_old_enough(self):
        pf = make_pf()
        pf.observe_fetch(1, 95)
        assert pf._select_source(99, 100) is None

    def test_self_source_is_rejected(self):
        pf = make_pf()
        pf.observe_fetch(7, 0)
        assert pf._select_source(7, 50) is None

    def test_empty_history(self):
        pf = make_pf()
        assert pf._select_source(99, 1000) is None

    def test_same_block_runs_collapse(self):
        pf = make_pf()
        pf.observe_fetch(1, 0)
        pf.observe_fetch(1, 1)
        pf.observe_fetch(1, 2)
        assert len(pf._recent) == 1  # one visit, at its first cycle
        assert pf._recent[0] == (0, 1)

    def test_repeated_block_fetch_leaves_state_unchanged(self):
        """The engine skips ``observe_fetch`` on batched repeat hits;
        that is exact only while a repeat changes nothing."""
        pf = make_pf()
        pf.observe_fetch(1, 0)
        pf.observe_fetch(2, 5)
        pf.on_demand_miss(3, 60)
        before = ordered(pf)
        pf.observe_fetch(2, 70)
        assert ordered(pf) == before

    def test_history_ring_is_bounded(self):
        pf = make_pf(history=4)
        for i in range(10):
            pf.observe_fetch(100 + i, i * 5)
        assert len(pf._recent) == 4
        # Oldest surviving visit is the 7th fetch (blocks 106..109 kept).
        assert [b for _, b in pf._recent] == [106, 107, 108, 109]


class TestEntangle:
    def test_new_source_allocates_entry(self):
        pf = make_pf()
        pf._entangle(1, 50)
        assert pf.table.get(1) == [50]
        assert pf.stats.entangled == 1

    def test_destinations_append_fifo_within_cap(self):
        pf = make_pf(dests_per_entry=2)
        pf._entangle(1, 50)
        pf._entangle(1, 51)
        assert pf.table.get(1) == [50, 51]
        pf._entangle(1, 52)  # cap reached: oldest destination drops
        assert pf.table.get(1) == [51, 52]
        assert pf.stats.entangled == 3

    def test_duplicate_destination_is_a_noop(self):
        pf = make_pf()
        pf._entangle(1, 50)
        pf._entangle(1, 50)
        assert pf.table.get(1) == [50]
        assert pf.stats.entangled == 1

    def test_table_size_bound_and_eviction(self):
        pf = make_pf(table_entries=3)
        for src in (1, 2, 3):
            pf._entangle(src, 100 + src)
        assert len(pf.table) == 3
        assert pf.stats.table_evictions == 0
        pf._entangle(4, 104)  # full: LRU entry (source 1) is displaced
        assert len(pf.table) == 3
        assert pf.stats.table_evictions == 1
        assert pf.table.get(1) is None
        assert pf.table.get(4) == [104]

    def test_stress_never_exceeds_capacity(self):
        pf = make_pf(table_entries=8, dests_per_entry=2)
        rng = np.random.RandomState(0)
        for _ in range(500):
            pf._entangle(int(rng.randint(0, 64)), int(rng.randint(64, 128)))
        assert len(pf.table) <= 8
        for dests in (pf.table.get(int(s)) for s in range(64)):
            assert dests is None or len(dests) <= 2


class TestOnDemandMiss:
    def test_timely_miss_entangles(self):
        pf = make_pf()
        pf.observe_fetch(1, 0)
        pf.on_demand_miss(99, 50)
        assert pf.table.get(1) == [99]

    def test_untimely_miss_trains_nothing(self):
        pf = make_pf()
        pf.observe_fetch(1, 49)
        pf.on_demand_miss(99, 50)
        assert len(pf.table) == 0
        assert pf.stats.entangled == 0


class TestCandidates:
    def test_issue_returns_copy_and_counts(self):
        pf = make_pf(blocks=[1, 2, 3])
        pf._entangle(1, 50)
        out = pf.candidates(0)  # record 0 fetches block 1
        assert out == [50]
        assert pf.stats.issued == 1
        out.append(777)  # caller mutation must not reach the table
        assert pf.table.get(1) == [50]

    def test_unentangled_block_issues_nothing(self):
        pf = make_pf(blocks=[1, 2, 3])
        assert pf.candidates(2) == []
        assert pf.stats.issued == 0

    def test_issue_promotes_source_to_mru(self):
        pf = make_pf(blocks=[1, 2, 3], table_entries=2)
        pf._entangle(1, 50)
        pf._entangle(2, 60)
        pf.candidates(0)  # touch source 1: now MRU
        pf._entangle(3, 70)  # eviction hits source 2, not 1
        assert pf.table.get(1) == [50]
        assert pf.table.get(2) is None


class TestConstructorValidation:
    def test_geometry_attributes_are_exposed(self):
        pf = make_pf(table_entries=16, dests_per_entry=3,
                     latency_estimate=7, history=32)
        assert (pf.table_entries, pf.dests_per_entry,
                pf.latency_estimate, pf.history) == (16, 3, 7, 32)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_pf(table_entries=0)
