"""Replacement-policy interface for set-associative caches.

A policy owns all per-line replacement metadata for one cache.  The
cache calls the policy on every hit, fill and eviction; the policy
answers victim-selection queries.  Policies never store the data/tag
array themselves — that stays in :class:`repro.mem.cache.
SetAssociativeCache` — so a policy can be swapped without touching the
lookup path.

The interface passes ``t`` (the current trace index) everywhere because
the oracle policy (Belady OPT) needs it; hardware policies ignore it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional


class ReplacementPolicy(ABC):
    """Per-cache replacement state machine.

    Lifecycle per set ``s``:

    * ``on_hit(s, block, t)``       — demand hit on a resident line.
    * ``victim(s, resident, block, t)`` — choose which resident line the
      incoming ``block`` replaces; return None to *bypass* (policies
      that cannot bypass always return a victim).
    * ``on_fill(s, block, t, prefetch)`` — incoming line installed.
    * ``on_evict(s, block, t)``     — line left the cache.
    """

    name = "base"

    #: Policies whose ``on_hit`` does nothing set this True so the cache
    #: can skip the callback on its hottest path (the demand hit).
    trivial_on_hit = False

    @abstractmethod
    def on_hit(self, set_index: int, block: int, t: int) -> None:
        """Record a demand hit on ``block``."""

    @abstractmethod
    def victim(
        self,
        set_index: int,
        resident: Iterable[int],
        incoming: int,
        t: int,
    ) -> Optional[int]:
        """Pick the replacement victim among ``resident`` lines.

        ``resident`` iterates LRU -> MRU (the cache's recency order).
        It may be the cache's *live* set view rather than a list, so
        policies must only iterate it (repeatedly is fine) — no indexing
        and no mutation of the set while choosing.  Returning None tells
        the cache to drop ``incoming`` instead of filling (a bypass
        decision made by the replacement policy, as GHRP and OPT do).
        """

    @abstractmethod
    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        """Record that ``block`` was installed in ``set_index``."""

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        """Record that ``block`` was evicted.  Default: nothing."""

    # -- checkpoint/resume --------------------------------------------------
    #
    # Stateless policies (LRU: the cache's recency order is the state)
    # inherit these no-ops; stateful ones override both.  load_state
    # must restore *in place* — the owning cache caches the policy's
    # bound ``on_hit`` method, so the instance must stay the same.

    def save_state(self) -> dict:
        """Snapshot all learned replacement state (picklable, detached)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`save_state` in place."""
