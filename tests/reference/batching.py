"""The engine loop's repeat-hit rule, replayed over op schedules.

:func:`lockstep_batched` drives two identically built schemes through
one schedule: ``real`` gets every op as written, ``batched`` the way
``simulate``'s record loop would call it.  A lookup of the block whose
latest real lookup hit, with only ``contains`` probes since, is not
made: it is counted and handed over in one ``repeat_hits`` call before
the next lookup of another block, fill or prefetch fill, and at the
end of the schedule.  :func:`ordered` puts saved states in a
comparable form that keeps dict (recency) order.
"""

from __future__ import annotations

from collections import deque


def lockstep_batched(real, batched, steps, check=None):
    """Drive both schemes over ``steps``; returns the repeat runs handed over.

    ``steps`` yields ``(op, block, t, cycle)`` with ``op`` one of
    ``lookup``/``fill``/``prefetch_fill``/``contains``.  Every verdict
    must agree.  After each ``repeat_hits`` call,
    ``check(real, batched, block, count)`` may compare the two.
    """
    runs = []
    hit_block = -1
    count = last_t = 0

    def hand_over():
        nonlocal count
        if count:
            batched.repeat_hits(hit_block, count, last_t)
            runs.append((hit_block, count))
            if check is not None:
                check(real, batched, hit_block, count)
            count = 0

    for op, block, t, cycle in steps:
        if op == "contains":
            assert real.contains(block) == batched.contains(block), (block, t)
            continue
        if op == "lookup":
            if block == hit_block:
                assert real.lookup(block, t, cycle), f"repeat of {block} missed"
                count += 1
                last_t = t
                continue
            hand_over()
            hit = real.lookup(block, t, cycle)
            assert batched.lookup(block, t, cycle) == hit, (block, t)
            hit_block = block if hit else -1
            continue
        hand_over()
        hit_block = -1
        getattr(real, op)(block, t, cycle)
        getattr(batched, op)(block, t, cycle)
    hand_over()
    return runs


def ordered(value):
    """Comparable normal form of a saved state that keeps dict order."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple, deque)):
        return [ordered(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "__dict__") and not isinstance(value, type):
        return [type(value).__name__, ordered(vars(value))]
    slots = [
        name
        for klass in type(value).__mro__
        for name in getattr(klass, "__slots__", ())
    ]
    if slots:
        return [type(value).__name__, [ordered(getattr(value, n)) for n in slots]]
    return value
