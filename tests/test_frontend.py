"""Tests for the branch-prediction stack and prefetchers."""

import numpy as np
import pytest

from repro.frontend.branch_predictors import BimodalPredictor, TagePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.stack import BranchStack
from repro.workloads.trace import BranchKind, Trace
from reference.fdp import FetchDirectedPrefetcher, NullPrefetcher


def make_trace(blocks, kinds=None, sites=None):
    n = len(blocks)
    return Trace(
        name="t",
        blocks=np.asarray(blocks, dtype=np.int64),
        instrs=np.full(n, 6, dtype=np.uint8),
        branch_kind=np.asarray(kinds if kinds is not None else [0] * n, dtype=np.uint8),
        branch_site=np.asarray(sites if sites is not None else [-1] * n, dtype=np.int64),
    )


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, ways=4)
        assert btb.predict(10) is None
        btb.update(10, 42)
        assert btb.predict(10) == 42

    def test_last_target_prediction(self):
        btb = BranchTargetBuffer(entries=64, ways=4)
        btb.update(10, 42)
        btb.update(10, 43)
        assert btb.predict(10) == 43

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=100, ways=4)


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.update(7, True)
        assert p.predict(7)
        for _ in range(8):
            p.update(7, False)
        assert not p.predict(7)


class TestTage:
    def test_learns_strong_bias_fast(self):
        p = TagePredictor()
        for _ in range(8):
            p.update(11, True)
        assert p.predict(11)

    def test_learns_periodic_pattern(self):
        p = TagePredictor()
        pattern = [True, True, False, True, False, False]
        for rep in range(300):
            for outcome in pattern:
                p.update(5, outcome)
        correct = 0
        total = 0
        for rep in range(30):
            for outcome in pattern:
                correct += p.predict(5) == outcome
                p.update(5, outcome)
                total += 1
        assert correct / total > 0.8

    def test_geometric_history_lengths(self):
        p = TagePredictor(num_tables=4, min_history=4, max_history=64)
        assert p.history_lengths[0] == 4
        assert p.history_lengths[-1] == 64
        assert all(a < b for a, b in zip(p.history_lengths, p.history_lengths[1:]))


class TestBranchStack:
    def test_sequential_always_predictable(self):
        trace = make_trace([1, 2, 3])
        stack = BranchStack(trace)
        assert stack.predictable(1)
        assert stack.predictable(2)

    def test_returns_predictable(self):
        trace = make_trace([1, 2], kinds=[0, BranchKind.RETURN], sites=[-1, 9])
        stack = BranchStack(trace)
        assert stack.predictable(1)

    def test_unseen_call_unpredictable_then_learned(self):
        kinds = [0, BranchKind.CALL, 0, BranchKind.CALL]
        sites = [-1, 5, -1, 5]
        trace = make_trace([1, 8, 9, 8], kinds=kinds, sites=sites)
        stack = BranchStack(trace)
        assert not stack.predictable(1)  # BTB cold
        assert stack.retire(1)           # mispredicted; trains BTB
        stack.retire(2)
        assert stack.predictable(3)      # same site, same target: hit

    def test_retire_counts_mispredictions(self):
        kinds = [0, BranchKind.INDIRECT, 0, BranchKind.INDIRECT]
        trace = make_trace([1, 2, 3, 2], kinds=kinds, sites=[-1, 3, -1, 3])
        stack = BranchStack(trace)
        assert stack.retire(0) is False  # sequential: nothing to resolve
        assert stack.retire(1) is True   # cold BTB
        assert stack.retire(3) is False  # trained to the same target


class TestFDP:
    def test_runahead_covers_sequential_path(self):
        trace = make_trace(list(range(20)))
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        out = fdp.candidates(0)
        assert out == list(range(1, 9))

    def test_runahead_incremental_no_duplicates(self):
        trace = make_trace(list(range(20)))
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        first = fdp.candidates(0)
        second = fdp.candidates(1)
        assert set(first).isdisjoint(second)

    def test_runahead_stalls_at_cold_indirect(self):
        kinds = [0, 0, BranchKind.INDIRECT, 0]
        trace = make_trace([1, 2, 30, 31], kinds=kinds, sites=[-1, -1, 7, -1])
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        out = fdp.candidates(0)
        assert out == [2]  # stops before the unpredictable dispatch
        assert fdp.stats.runahead_stalls == 1

    def test_rearms_after_resolution(self):
        kinds = [0, BranchKind.INDIRECT, 0, 0]
        trace = make_trace([1, 30, 31, 32], kinds=kinds, sites=[-1, 7, -1, -1])
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=4)
        assert fdp.candidates(0) == []
        stack.retire(1)
        assert 31 in fdp.candidates(1)

    def test_invalid_depth(self):
        trace = make_trace([1])
        with pytest.raises(ValueError):
            FetchDirectedPrefetcher(trace, BranchStack(trace), depth=0)


class TestEntangling:
    def test_entangles_and_prefetches(self):
        blocks = [1, 2, 3, 99]
        trace = make_trace(blocks)
        pf = EntanglingPrefetcher(trace, latency_estimate=2)
        pf.observe_fetch(1, 0)
        pf.observe_fetch(2, 5)
        pf.observe_fetch(3, 10)
        pf.on_demand_miss(99, 12)  # source: earliest fetch >= 2 cycles back
        # Source should be block 1 or 2 (far enough back); fetching it
        # again prefetches 99.
        issued = []
        for i, b in enumerate(blocks):
            got = pf.candidates(i)
            issued.extend(got)
        assert 99 in issued or pf.stats.entangled == 1

    def test_dest_cap(self):
        trace = make_trace([1])
        pf = EntanglingPrefetcher(trace, dests_per_entry=2, latency_estimate=1)
        pf.observe_fetch(1, 0)
        for i, dest in enumerate((50, 51, 52)):
            pf.on_demand_miss(dest, 100 + i)
        dests = pf.table.get(1)
        assert dests is not None and len(dests) <= 2

    def test_null_prefetcher(self):
        trace = make_trace([1, 2])
        pf = NullPrefetcher(trace)
        assert pf.candidates(0) == []
