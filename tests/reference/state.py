"""Test-side views of simulator state, for comparing runs mid-flight.

Simulator objects carry no state API of their own: an engine checkpoint
is one pickle of the collaborator graph.  The differential suites
compare two objects through these views instead.

* :func:`ordered` is a deep view of what a pickle of an object would
  hold, in a comparable normal form that keeps dict (recency) order.
  It compares two objects of one implementation: batched against real,
  capped against uncapped, resumed against uninterrupted.
* :func:`readable_shape` projects a flat replacement twin into the
  shape of its readable ``PlainCacheScheme``: line payloads ``None``,
  GHRP's ``_line_indices``, Hawkeye's ``_rrpv`` and ``_OPTgen`` objects
  and OPT's ``_next_use`` materialised from the twin's line payloads
  and packed occupancy lanes.  It compares a twin with its reference.
"""

from __future__ import annotations

from collections import deque
from types import BuiltinFunctionType, FunctionType, MethodType

from repro.baselines.plain import PlainCacheScheme
from repro.mem.oracle import NextUseOracle
from repro.mem.policies.flat_ghrp import FlatGHRPScheme
from repro.mem.policies.flat_hawkeye import VECTOR_ENTRIES, FlatHawkeyeScheme
from repro.mem.policies.flat_plain import FlatOPTScheme, _FlatPlainScheme
from repro.workloads.trace import Trace
from reference.policies import _OPTgen

#: Types a view keeps as they are.
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))

#: The learned state of each readable policy, by attribute.
POLICY_FIELDS = {
    "lru": (),
    "opt": ("_next_use",),
    "ghrp": ("tables", "ghr", "_line_indices"),
    "hawkeye": ("predictor", "_optgen", "_history", "_rrpv", "_sig_of_line"),
}


def ordered(value):
    """Comparable normal form of ``value``'s pickled state, dict order kept.

    Objects contribute what their ``__getstate__`` returns (so the
    flat twins flush their deferred counters and drop their closures
    first).  The trace and the next-use oracle, which a run owns and a
    capture holds by reference, contribute only their type.
    """
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple, deque)):
        if all(type(v) in _SCALARS for v in value):
            return list(value)
        return [ordered(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if type(value) in _SCALARS:
        return value
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (Trace, NextUseOracle)):
        return type(value).__name__
    if isinstance(value, MethodType):
        return ["method", value.__func__.__qualname__]
    if isinstance(value, (FunctionType, BuiltinFunctionType, type)):
        return ["callable", value.__qualname__]
    return [type(value).__name__, ordered(value.__getstate__())]


def pack_occ(lanes):
    """Pack an ``_OPTgen`` occupancy list into 8-bit lanes of one int."""
    packed = 0
    for i, value in enumerate(lanes):
        packed |= value << (i << 3)
    return packed


def unpack_occ(packed: int, window: int):
    """Unpack 8-bit lanes back into an ``_OPTgen`` occupancy list."""
    return [(packed >> (i << 3)) & 0xFF for i in range(window)]


def _flat_policy(scheme) -> dict:
    """The readable policy's learned state, rebuilt from a flat twin."""
    lines_by_set = scheme._lines_by_set
    if isinstance(scheme, FlatGHRPScheme):
        return {
            "tables": scheme.tables,
            "ghr": scheme.ghr,
            "_line_indices": {
                block: indices
                for lines in lines_by_set
                for block, indices in lines.items()
                if indices is not None
            },
        }
    if isinstance(scheme, FlatHawkeyeScheme):
        optgen = {}
        for s, gen_time in enumerate(scheme._opt_time):
            if gen_time is not None:
                gen = _OPTgen(scheme.config.ways, VECTOR_ENTRIES)
                gen.time = gen_time
                gen.occ = unpack_occ(scheme._opt_occ[s], VECTOR_ENTRIES)
                optgen[s] = gen
        return {
            "predictor": scheme.predictor,
            "_optgen": optgen,
            "_history": {
                s: history
                for s, history in enumerate(scheme._hist_by_set)
                if history is not None
            },
            "_rrpv": {s: dict(lines) for s, lines in enumerate(lines_by_set) if lines},
            "_sig_of_line": scheme._sig_of_line,
        }
    if isinstance(scheme, FlatOPTScheme):
        return {
            "_next_use": {
                block: next_use
                for lines in lines_by_set
                for block, next_use in lines.items()
            }
        }
    return {}


def readable_shape(scheme) -> dict:
    """``{"icache": {"sets", "policy", "stats"}}`` in the readable shape.

    Takes a ``PlainCacheScheme`` or any flat replacement twin; a twin's
    deferred counters are flushed first.  Set dicts keep their recency
    order.
    """
    icache = scheme.icache
    if isinstance(scheme, PlainCacheScheme):
        policy = {
            name: getattr(icache.policy, name)
            for name in POLICY_FIELDS[icache.policy.name]
        }
        sets = [dict(lines) for lines in icache.line_dicts()]
    else:
        assert isinstance(scheme, (_FlatPlainScheme, FlatGHRPScheme, FlatHawkeyeScheme))
        scheme._flush()
        policy = _flat_policy(scheme)
        sets = [dict.fromkeys(lines) for lines in scheme._lines_by_set]
    return {"icache": {"sets": sets, "policy": policy, "stats": dict(vars(icache.stats))}}
