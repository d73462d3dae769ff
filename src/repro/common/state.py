"""Helpers for component-state serialization (checkpoint/resume).

Every stateful simulator component implements two methods::

    def save_state(self) -> dict: ...
    def load_state(self, state: dict) -> None: ...

with a shared contract (enforced by ``tests/test_state_roundtrip.py``):

* ``save_state`` returns a picklable snapshot fully *detached* from the
  live object — continuing the simulation never mutates a saved state,
  and a state written to disk round-trips through ``pickle``.  Snapshots
  therefore hold only plain data (ints, floats, strings, lists, dicts,
  deques, small module-level value classes) — never bound methods,
  lambdas, traces, oracles or other externally-owned references.
* ``load_state`` restores a *freshly constructed* component of the same
  geometry to the saved state, mutating existing containers **in
  place** where other code may hold references to them (the flat ACIC
  controller aliases its children's dicts/lists/stats; replacement
  policies are aliased by their cache's cached ``_on_hit`` bound
  method).  Compound components delegate to their children's
  ``load_state`` rather than replacing the child objects, for the same
  reason.
* Externally-owned collaborators (the trace, the next-use oracle, the
  frontend plan) are *not* part of a component's state: they are
  reconstructed by the harness from the run configuration and must be
  identical by construction.

The helpers below keep the per-class methods short: one deep copy per
direction (a single :func:`snapshot` call preserves aliasing *within* a
snapshot via the deepcopy memo) plus in-place loaders for the common
container shapes.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Dict, Iterable, List, Sequence

#: Immutable scalar types: a container holding only these is copied
#: whole, since a deep copy of each item is the item itself.
_SCALARS = frozenset((int, float, bool, str, bytes, type(None)))


def _flat(items) -> bool:
    return set(map(type, items)) <= _SCALARS


def _seed_flat(value: Any, memo: Dict[int, Any]) -> None:
    """Put a one-slice copy of every flat list/dict under ``value`` in ``memo``.

    ``copy.deepcopy`` walks a list or dict one item at a time; for the
    large flat tables schemes keep (predictor counters, recency dicts)
    that walk is nearly the whole cost of a snapshot.  Seeding the memo
    keyed by ``id`` makes ``deepcopy`` take each seeded copy as is, and
    a container reached twice still maps to one copy.  Only plain
    ``list``/``dict`` objects are seeded; everything else is walked to
    find them and left to ``deepcopy``.
    """
    seen = set()
    stack = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls is list:
            if _flat(obj):
                memo[id(obj)] = obj[:]
            else:
                stack.extend(obj)
        elif cls is dict:
            if _flat(obj) and _flat(obj.values()):
                memo[id(obj)] = obj.copy()
            else:
                stack.extend(obj.values())
        elif cls is tuple or cls is deque:
            stack.extend(obj)
        elif cls not in _SCALARS:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for slot in _slots(cls):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))


def _slots(cls: type) -> tuple:
    """Every ``__slots__`` name ``cls`` and its bases declare."""
    names: tuple = ()
    for klass in cls.__mro__:
        declared = klass.__dict__.get("__slots__", ())
        names += (declared,) if isinstance(declared, str) else tuple(declared)
    return names


def snapshot(value: Any) -> Any:
    """A detached deep copy of ``value`` (one call keeps internal aliasing).

    Flat lists and dicts inside ``value`` are copied with one slice
    each (see :func:`_seed_flat`), the rest by ``copy.deepcopy``.
    """
    memo: Dict[int, Any] = {}
    _seed_flat(value, memo)
    return copy.deepcopy(value, memo)


def save_attrs(obj: Any, names: Iterable[str]) -> Dict[str, Any]:
    """Deep-copied ``{name: getattr(obj, name)}`` over ``names``.

    The whole mapping goes through one :func:`snapshot` call, so
    attributes that alias each other keep doing so inside the snapshot.
    """
    return snapshot({name: getattr(obj, name) for name in names})


def load_attrs(obj: Any, state: Dict[str, Any], names: Iterable[str]) -> None:
    """Restore attributes saved by :func:`save_attrs` (replacement semantics).

    Use only for attributes nothing else holds a reference to; aliased
    containers want the ``load_*_inplace`` helpers instead.
    """
    restored = snapshot({name: state[name] for name in names})
    for name in names:
        setattr(obj, name, restored[name])


def save_stats(stats: Any) -> Dict[str, Any]:
    """Snapshot a flat stats dataclass (scalar counters only)."""
    return dict(vars(stats))


def load_stats(stats: Any, saved: Dict[str, Any]) -> None:
    """Restore a stats dataclass *in place* (aliases stay valid)."""
    for name, value in saved.items():
        setattr(stats, name, value)


def load_dict_inplace(live: Dict, saved: Dict) -> None:
    """Replace ``live``'s contents with a detached copy of ``saved``.

    Mutating in place keeps every outstanding reference to ``live``
    (e.g. the flat controller's captured ``_lines`` dicts) valid.
    Insertion order of ``saved`` is preserved — for the recency-ordered
    dicts backing every LRU structure that order *is* the state.
    """
    live.clear()
    live.update(snapshot(saved))


def load_list_inplace(live: List, saved: Sequence) -> None:
    """Replace ``live``'s contents with a detached copy of ``saved``."""
    live[:] = snapshot(saved)
