"""Uniform-random replacement, used as a sanity baseline in tests."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.mem.policies.base import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random resident line.  Seeded for determinism."""

    name = "random"
    trivial_on_hit = True

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_hit(self, set_index: int, block: int, t: int) -> None:
        pass

    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        lines = tuple(resident)  # rare off-hot-path policy: sampling needs indexing
        return lines[self._rng.randrange(len(lines))]

    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        pass

    def save_state(self) -> dict:
        return {"rng": self._rng.getstate()}

    def load_state(self, state: dict) -> None:
        self._rng.setstate(state["rng"])
