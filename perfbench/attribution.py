"""Record-then-replay attribution of engine time to the scheme.

A :class:`RecordingScheme` stands in for a scheme during one
``simulate`` call and logs every protocol call (``lookup``, ``fill``,
``prefetch_fill``, ``contains``) with its arguments and result.
:func:`replay` then drives a *fresh* instance of the same scheme with
that exact stream, timed, and checks every return value against the
recording.  Replay time is the scheme's own cost; the untraced
``simulate`` time minus the replay is the engine's (loop, MSHR,
hierarchy, frontend plan reads).
"""

from __future__ import annotations

import time
from array import array
from typing import Tuple

LOOKUP, FILL, PREFETCH_FILL, CONTAINS = range(4)


class RecordingScheme:
    """Delegating proxy that records the scheme protocol stream."""

    def __init__(self, scheme) -> None:
        self._scheme = scheme
        self.name = scheme.name
        self.ops = array("b")
        self.blocks = array("q")
        self.ts = array("q")
        self.cycles = array("q")
        self.results = array("b")  # -1: no return value
        prepare = getattr(scheme, "prepare_trace", None)
        if prepare is not None:
            self.prepare_trace = prepare
        finish = getattr(scheme, "finish_trace", None)
        if finish is not None:
            self.finish_trace = finish

    def _log(self, op: int, block: int, t: int, cycle: int, result: int) -> None:
        self.ops.append(op)
        self.blocks.append(block)
        self.ts.append(t)
        self.cycles.append(cycle)
        self.results.append(result)

    def lookup(self, block, t, cycle):
        hit = self._scheme.lookup(block, t, cycle)
        self._log(LOOKUP, block, t, cycle, 1 if hit else 0)
        return hit

    def fill(self, block, t, cycle):
        self._scheme.fill(block, t, cycle)
        self._log(FILL, block, t, cycle, -1)

    def prefetch_fill(self, block, t, cycle):
        self._scheme.prefetch_fill(block, t, cycle)
        self._log(PREFETCH_FILL, block, t, cycle, -1)

    def contains(self, block):
        present = self._scheme.contains(block)
        self._log(CONTAINS, block, 0, 0, 1 if present else 0)
        return present

    def __len__(self) -> int:
        return len(self.ops)


def replay(scheme, recording: RecordingScheme, trace) -> Tuple[float, int]:
    """Drive ``scheme`` with the recorded stream; (seconds, mismatches).

    Only the replay loop is timed; ``prepare_trace``/``finish_trace``
    run outside it, as in the engine they bracket the loop.
    """
    prepare = getattr(scheme, "prepare_trace", None)
    if prepare is not None:
        prepare(trace)
    lookup = scheme.lookup
    fill = scheme.fill
    prefetch_fill = scheme.prefetch_fill
    contains = scheme.contains
    ops = recording.ops.tolist()
    blocks = recording.blocks.tolist()
    ts = recording.ts.tolist()
    cycles = recording.cycles.tolist()
    got = [-1] * len(ops)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if op == LOOKUP:
            got[i] = 1 if lookup(blocks[i], ts[i], cycles[i]) else 0
        elif op == CONTAINS:
            got[i] = 1 if contains(blocks[i]) else 0
        elif op == FILL:
            fill(blocks[i], ts[i], cycles[i])
        else:
            prefetch_fill(blocks[i], ts[i], cycles[i])
    seconds = time.perf_counter() - start
    finish = getattr(scheme, "finish_trace", None)
    if finish is not None:
        finish()
    mismatches = sum(1 for a, b in zip(got, recording.results.tolist()) if a != b)
    return seconds, mismatches
