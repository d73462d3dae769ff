"""Tests for the next-use oracle.

Beyond the brute-force properties, the argsort/CSR build is pinned to
the readable two-loop build in ``tests/reference/oracle.py`` on the
160k production traces and on the degenerate ones.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mem.oracle import NEVER, NextUseOracle
from repro.workloads.profiles import get_workload
from reference.oracle import ReferenceNextUseOracle


class TestNextUse:
    def test_basic_chain(self):
        oracle = NextUseOracle([5, 6, 5, 7, 5])
        assert oracle.next_use_at(0) == 2
        assert oracle.next_use_at(2) == 4
        assert oracle.next_use_at(4) == NEVER
        assert oracle.next_use_at(1) == NEVER

    def test_next_use_of_arbitrary_time(self):
        oracle = NextUseOracle([5, 6, 5, 7, 5])
        assert oracle.next_use_of(5, 0) == 2
        assert oracle.next_use_of(5, 2) == 4
        assert oracle.next_use_of(5, 4) == NEVER
        assert oracle.next_use_of(99, 0) == NEVER

    def test_reuse_distance_after(self):
        oracle = NextUseOracle([1, 2, 1])
        assert oracle.reuse_distance_after(0) == 2
        assert oracle.reuse_distance_after(1) == NEVER

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=120))
    def test_matches_bruteforce(self, blocks):
        oracle = NextUseOracle(blocks)
        for t, block in enumerate(blocks):
            expected = NEVER
            for j in range(t + 1, len(blocks)):
                if blocks[j] == block:
                    expected = j
                    break
            assert oracle.next_use_at(t) == expected
            assert oracle.next_use_of(block, t) == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=-1, max_value=60),
    )
    def test_next_use_of_bruteforce_any_query(self, blocks, block, t):
        oracle = NextUseOracle(blocks)
        expected = NEVER
        for j in range(max(0, t + 1), len(blocks)):
            if blocks[j] == block:
                expected = j
                break
        assert oracle.next_use_of(block, t) == expected


def _assert_matches_reference(blocks):
    """Every next_use_at, and next_use_of around every access, agree."""
    blocks = [int(b) for b in blocks]
    oracle = NextUseOracle(blocks)
    ref = ReferenceNextUseOracle(blocks)
    n = len(blocks)
    assert oracle.length == ref.length == n
    for t in range(n):
        assert oracle.next_use_at(t) == ref.next_use_at(t), t
    positions = {}
    for t, block in enumerate(blocks):
        positions.setdefault(block, []).append(t)
    for block, where in positions.items():
        queries = {-1, n}
        for p in where:
            queries.update((p - 1, p, p + 1))
        for t in queries:
            assert oracle.next_use_of(block, t) == ref.next_use_of(block, t), (
                block,
                t,
            )
    assert oracle.next_use_of(max(positions, default=0) + 1, -1) == NEVER


class TestReferenceTwin:
    """The argsort/CSR build equals the two-loop reference build."""

    @pytest.mark.parametrize("workload", ["media-streaming", "web-search"])
    def test_matches_reference_on_160k_trace(self, workload):
        trace = get_workload(workload).trace(records=160_000)
        _assert_matches_reference(trace.blocks)

    @pytest.mark.parametrize(
        "blocks",
        [[], [7], [3] * 50, [0, 1 << 40, 0, -5, 1 << 40]],
        ids=["empty", "single", "all-same", "wide-ids"],
    )
    def test_matches_reference_on_edge_traces(self, blocks):
        _assert_matches_reference(blocks)

    def test_empty_trace_answers_never(self):
        oracle = NextUseOracle(np.asarray([], dtype=np.int64))
        assert oracle.length == 0
        assert oracle.next_use_of(0, -1) == NEVER

    def test_arrays_are_compact_int64(self):
        oracle = NextUseOracle([5, 6, 5, 7, 5])
        for values in (oracle._next_use, oracle._order, oracle._bounds):
            assert isinstance(values, array) and values.typecode == "q"
        assert list(oracle._order) == [0, 2, 4, 1, 3]
        assert list(oracle._bounds) == [0, 3, 4, 5]
        assert oracle._index == {5: 0, 6: 1, 7: 2}
        assert type(oracle.next_use_at(0)) is int
