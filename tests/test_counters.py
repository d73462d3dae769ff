"""Unit and property tests for saturating counters and history registers."""

import pytest
from hypothesis import given, strategies as st

from repro.common.counters import HistoryRegister, SaturatingCounter


class TestSaturatingCounter:
    def test_default_initial_is_midpoint(self):
        assert SaturatingCounter(2).value == 2
        assert SaturatingCounter(5).value == 16

    def test_saturates_high(self):
        c = SaturatingCounter(2, initial=3)
        c.increment()
        assert c.value == 3

    def test_saturates_low(self):
        c = SaturatingCounter(2, initial=0)
        c.decrement()
        assert c.value == 0

    def test_update_direction(self):
        c = SaturatingCounter(3, initial=4)
        c.update(True)
        assert c.value == 5
        c.update(False)
        assert c.value == 4

    def test_is_set_default_threshold(self):
        c = SaturatingCounter(2, initial=1)
        assert not c.is_set()
        c.increment()
        assert c.is_set()

    def test_is_set_custom_threshold(self):
        c = SaturatingCounter(4, initial=10)
        assert c.is_set(threshold=10)
        assert not c.is_set(threshold=11)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_width(self, bad):
        with pytest.raises(ValueError):
            SaturatingCounter(bad)

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            SaturatingCounter(2, initial=4)

    @given(
        bits=st.integers(min_value=1, max_value=8),
        updates=st.lists(st.booleans(), max_size=300),
    )
    def test_always_within_bounds(self, bits, updates):
        c = SaturatingCounter(bits)
        for up in updates:
            c.update(up)
            assert 0 <= c.value <= c.max_value


class TestHistoryRegister:
    def test_push_shifts_left(self):
        h = HistoryRegister(4)
        h.push(1)
        h.push(0)
        h.push(1)
        assert h.value == 0b101

    def test_wraps_at_width(self):
        h = HistoryRegister(2)
        for bit in (1, 1, 1):
            h.push(bit)
        assert h.value == 0b11

    def test_int_conversion(self):
        h = HistoryRegister(4, initial=5)
        assert int(h) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            HistoryRegister(0)
        with pytest.raises(ValueError):
            HistoryRegister(2, initial=4)

    @given(
        bits=st.integers(min_value=1, max_value=16),
        pushes=st.lists(st.booleans(), max_size=100),
    )
    def test_value_always_fits(self, bits, pushes):
        h = HistoryRegister(bits)
        for bit in pushes:
            h.push(bit)
            assert 0 <= h.value < (1 << bits)

    @given(st.lists(st.booleans(), min_size=4, max_size=4))
    def test_four_pushes_encode_exactly(self, bits):
        h = HistoryRegister(4)
        for b in bits:
            h.push(b)
        expected = int("".join("1" if b else "0" for b in bits), 2)
        assert h.value == expected
