"""Replacement-policy interface for set-associative caches.

A policy owns all per-line replacement metadata for one cache.  The
cache calls the policy on every hit, fill and eviction; the policy
answers victim-selection queries.  Policies never store the data/tag
array themselves — that stays in :class:`repro.mem.cache.
SetAssociativeCache` — so a policy can be swapped without touching the
lookup path.

The interface passes ``t`` (the current trace index) everywhere because
the oracle policy (Belady OPT) needs it; hardware policies ignore it.

:class:`BoundHotPath` is the pickling the fused policy twins share.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from types import FunctionType
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
        decision made by the replacement policy, as Belady's OPT does).
        """

    @abstractmethod
    def on_fill(self, set_index: int, block: int, t: int, prefetch: bool) -> None:
        """Record that ``block`` was installed in ``set_index``."""

    def on_evict(self, set_index: int, block: int, t: int) -> None:
        """Record that ``block`` was evicted.  Default: nothing."""


class BoundHotPath:
    """Pickling for the flat twins whose ``_bind`` closes over containers.

    ``_bind`` assigns the protocol methods and ``_flush`` onto the
    instance as closures over the twin's containers and deferred
    counters.  A closure cannot be pickled, so a pickle flushes the
    counters, leaves the closures out, and the copy binds its own on
    load.  The per-trace pre-pass views are left out too: the engine's
    ``prepare_trace`` binds them again on the resumed run.
    """

    #: Pre-pass views (bound by ``prepare_trace``, valid for demand
    #: records only: record t accesses trace.blocks[t]).
    _sig_of_t = None
    _set_of_t = None

    def __getstate__(self) -> dict:
        self._flush()
        state = {
            name: value
            for name, value in vars(self).items()
            if not isinstance(value, FunctionType)
        }
        state.pop("_sig_of_t", None)
        state.pop("_set_of_t", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()
