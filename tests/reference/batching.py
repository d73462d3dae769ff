"""The engine loop's repeat-hit rule, replayed over op schedules.

:func:`lockstep_batched` drives two identically built schemes through
one schedule: ``real`` gets every op as written, ``batched`` the way
``simulate``'s record loop would call it.  A lookup of the block whose
latest real lookup hit, with only ``contains`` probes since, is not
made: it is counted and handed over in one ``repeat_hits`` call before
the next lookup of another block, fill or prefetch fill, and at the
end of the schedule.
"""

from __future__ import annotations


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

