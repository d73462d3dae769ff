"""Saturating counters and shift-register histories.

These model the exact hardware idioms the paper's predictor is built
from: n-bit up/down saturating counters (PT entries, SHiP SHCT, GHRP
tables) and k-bit left-shifting history registers (HRT entries, global
branch history).
"""

from __future__ import annotations

from repro.common.bitops import mask


class SaturatingCounter:
    """An n-bit up/down saturating counter.

    The counter saturates at ``[0, 2**bits - 1]``.  ``taken()`` style
    predicates compare against a threshold that defaults to the midpoint
    (the hardware convention: MSB set => predict strong/weak yes).
    """

    __slots__ = ("bits", "value", "_max")

    def __init__(self, bits: int, initial: int | None = None) -> None:
        if bits <= 0:
            raise ValueError(f"counter width must be positive, got {bits}")
        self.bits = bits
        self._max = mask(bits)
        if initial is None:
            initial = (self._max + 1) // 2  # weakly-yes midpoint
        if not 0 <= initial <= self._max:
            raise ValueError(
                f"initial value {initial} out of range for {bits}-bit counter"
            )
        self.value = initial

    @property
    def max_value(self) -> int:
        return self._max

    def increment(self) -> None:
        if self.value < self._max:
            self.value += 1

    def decrement(self) -> None:
        if self.value > 0:
            self.value -= 1

    def update(self, up: bool) -> None:
        if up:
            self.increment()
        else:
            self.decrement()

    def is_set(self, threshold: int | None = None) -> bool:
        """True when the counter is at or above ``threshold``.

        Default threshold is the midpoint ``2**(bits-1)``, matching the
        usual MSB-based hardware decision.
        """
        if threshold is None:
            threshold = (self._max + 1) // 2
        return self.value >= threshold

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


class HistoryRegister:
    """A k-bit left-shifting history register (HRT entry / GHR).

    ``push(bit)`` shifts left and inserts the new outcome at the LSB,
    exactly as Section III-A describes for HRT entries.
    """

    __slots__ = ("bits", "value", "_mask")

    def __init__(self, bits: int, initial: int = 0) -> None:
        if bits <= 0:
            raise ValueError(f"history width must be positive, got {bits}")
        self.bits = bits
        self._mask = mask(bits)
        if not 0 <= initial <= self._mask:
            raise ValueError(
                f"initial value {initial} out of range for {bits}-bit history"
            )
        self.value = initial

    def push(self, outcome: bool | int) -> int:
        """Shift in ``outcome`` at the LSB; returns the new value."""
        self.value = ((self.value << 1) | (1 if outcome else 0)) & self._mask
        return self.value

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistoryRegister(bits={self.bits}, value={self.value:0{self.bits}b})"
