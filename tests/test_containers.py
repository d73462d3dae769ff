"""Unit and property tests for the LRU container."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.containers import LRUSet


class TestLRUSet:
    def test_insert_and_contains(self):
        s = LRUSet(2)
        s.insert_mru(1)
        assert 1 in s
        assert 2 not in s

    def test_eviction_order_is_lru(self):
        s = LRUSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        evicted = s.insert_mru(3)
        assert evicted == 1
        assert list(s) == [2, 3]
        assert s.lru_key() == 2

    def test_touch_promotes(self):
        s = LRUSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        assert s.touch(1)
        evicted = s.insert_mru(3)
        assert evicted == 2

    def test_touch_missing_returns_false(self):
        s = LRUSet(2)
        assert not s.touch(99)

    def test_reinsert_promotes_without_eviction(self):
        s = LRUSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        assert s.insert_mru(1) is None
        assert list(s) == [2, 1]

    def test_remove(self):
        s = LRUSet(2)
        s.insert_mru(1)
        assert s.remove(1)
        assert not s.remove(1)

    def test_invalid_ways(self):
        with pytest.raises(ValueError):
            LRUSet(0)

    @settings(max_examples=60)
    @given(
        ways=st.integers(min_value=1, max_value=8),
        ops=st.lists(st.integers(min_value=0, max_value=12), max_size=200),
    )
    def test_matches_ordereddict_reference(self, ways, ops):
        """Model-based check against an OrderedDict LRU reference."""
        s = LRUSet(ways)
        ref: OrderedDict = OrderedDict()
        for op in ops:
            if op in ref:
                ref.move_to_end(op)
                assert s.touch(op)
            else:
                assert not s.touch(op)
                victim = s.insert_mru(op)
                if len(ref) >= ways:
                    expected_victim, _ = ref.popitem(last=False)
                    assert victim == expected_victim
                else:
                    assert victim is None
                ref[op] = None
            assert list(s) == list(ref)


    def test_payload_roundtrip(self):
        s = LRUSet(4)
        s.insert_mru(1, [50])
        assert s.get(1) == [50]
        assert s.get(2) is None

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=150))
    def test_capacity_never_exceeded(self, ops):
        s = LRUSet(5)
        for op in ops:
            s.insert_mru(op)
            assert len(s) <= 5
