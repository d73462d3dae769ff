"""save_state/load_state identity for every registered scheme.

Resumable runs (the shard ledger, ``repro/harness/shards.py``) only work
if every stateful component can be serialized mid-run and restored into a
*fresh* object with no behavioural drift.  These tests pin that
contract property-style: drive a scheme through a randomized schedule
(tiny block space, capacity pressure everywhere — the idiom of
``test_acic_differential.py``), cut at a random point, pickle the saved
state across a simulated process boundary, load it into a fresh (and
deliberately pre-polluted) instance, then require the restored scheme to
track the uninterrupted original bit-for-bit through the rest of the
schedule and to finish in an identical observable state.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.common.state import snapshot
from repro.harness.schemes import (
    SchemeContext,
    available_schemes,
    make_scheme,
    scheme_needs_oracle,
)
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload
from reference import readable_registry
from reference.acic import ACICScheme

RECORDS = 2_000
WORKLOAD = "x264"


@pytest.fixture(scope="module")
def context():
    trace = get_workload(WORKLOAD).trace(records=RECORDS)
    return SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


def _schedule(seed: int, length: int = 900, blocks: int = 80):
    """Mixed ops over a small block space; ``t`` advances one per op.

    Sequential ``t`` (unlike the differential tests' strided clock)
    keeps oracle queries well-formed for the oracle-backed schemes.
    """
    rng = random.Random(seed)
    ops = []
    last = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            block = last if rng.random() < 0.5 else rng.randrange(blocks)
            ops.append(("lookup", block))
            last = block
        elif roll < 0.75:
            ops.append(("fill", rng.randrange(blocks)))
        elif roll < 0.9:
            ops.append(("prefetch_fill", rng.randrange(blocks)))
        else:
            ops.append(("contains", rng.randrange(blocks)))
    return ops


def _drive(scheme, ops, lo: int, hi: int):
    """Apply ops[lo:hi]; returns every observable op result."""
    out = []
    for t in range(lo, hi):
        op, block = ops[t]
        if op == "lookup":
            out.append(scheme.lookup(block, t, t))
        elif op == "fill":
            scheme.fill(block, t, t)
        elif op == "prefetch_fill":
            scheme.prefetch_fill(block, t, t)
        else:
            out.append(scheme.contains(block))
    return out


def assert_state_equal(a, b, path: str = "state"):
    """Deep equality over save_state payloads (arrays, deques, objects)."""
    assert type(a) is type(b) or (
        isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
    ), path
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for k in a:
            assert_state_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    elif isinstance(a, (list, tuple)) or type(a).__name__ == "deque":
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    elif hasattr(a, "__dict__") and not isinstance(a, type):
        assert_state_equal(vars(a), vars(b), f"{path}<{type(a).__name__}>")
    elif hasattr(type(a), "__slots__"):
        names = [
            n
            for klass in type(a).__mro__
            for n in getattr(klass, "__slots__", ())
        ]
        assert_state_equal(
            {n: getattr(a, n) for n in names},
            {n: getattr(b, n) for n in names},
            f"{path}<{type(a).__name__}>",
        )
    else:
        assert a == b, path


def _roundtrip(name: str, context: SchemeContext, seed: int):
    ops = _schedule(seed)
    rng = random.Random(seed + 99)
    cut = rng.randrange(len(ops) // 4, 3 * len(ops) // 4)

    original = make_scheme(name, context)
    _drive(original, ops, 0, cut)

    # Across a simulated process boundary: the shard ledger pickles
    # exactly this payload.
    state = pickle.loads(pickle.dumps(original.save_state()))

    # Pre-pollute the fresh instance with foreign history so a partial
    # load (a forgotten attribute) cannot hide behind constructor defaults.
    restored = make_scheme(name, context)
    _drive(restored, _schedule(seed + 7), 0, 120)
    restored.load_state(state)

    tail_a = _drive(original, ops, cut, len(ops))
    tail_b = _drive(restored, ops, cut, len(ops))
    assert tail_a == tail_b, f"{name}: restored scheme diverged after load"
    assert_state_equal(original.save_state(), restored.save_state())


@pytest.mark.parametrize("name", sorted(available_schemes()))
def test_every_registered_scheme_roundtrips(name, context):
    _roundtrip(name, context, seed=17)


@pytest.mark.parametrize(
    "name", ["acic", "lru", "dsb", "obm", "random-bypass", "vvc"]
)
@pytest.mark.parametrize("seed", range(3))
def test_randomized_cut_points(name, context, seed):
    """Stateful-RNG and victim-buffer schemes across several cuts."""
    _roundtrip(name, context, seed=seed * 31 + 5)


def test_naive_acic_controller_roundtrips(context):
    """The readable reference controller honours the same contract."""
    with readable_registry():
        assert isinstance(make_scheme("acic", context), ACICScheme)
        _roundtrip("acic", context, seed=3)


def test_load_state_is_in_place_for_flat_acic(context):
    """FlatACICScheme._rebind caches child containers; load_state must
    restore *into* them (or rebind) so the hot path sees the new state."""
    scheme = make_scheme("acic", context)
    ops = _schedule(11)
    _drive(scheme, ops, 0, 400)
    state = scheme.save_state()

    fresh = make_scheme("acic", context)
    fresh.load_state(state)
    # The rebound fast-path references and the authoritative containers
    # must be the same objects after a load.
    assert fresh._cshr_vt is fresh.cshr._victim_tags
    assert fresh._ic_stats is fresh.icache.stats
    assert scheme.stats == fresh.stats


def test_oracle_is_external_not_state(context):
    """Oracle-backed schemes serialize decisions, not the oracle."""
    for name in ("opt", "opt-bypass", "acic-audit"):
        assert scheme_needs_oracle(name)
        scheme = make_scheme(name, context)
        _drive(scheme, _schedule(23), 0, 300)
        state = pickle.dumps(scheme.save_state())
        # An oracle over the full trace is megabytes; serialized scheme
        # state staying small is the cheap proxy that it was excluded.
        assert len(state) < 512 * 1024


class _Slotted:
    __slots__ = ("occ", "time")

    def __init__(self, occ):
        self.occ = occ
        self.time = 0


def test_snapshot_copies_flat_containers_whole_and_keeps_aliasing():
    """Flat lists/dicts come out detached, and one container stays one."""
    table = [0, 1, 2.5, None, "x"]
    recency = {7: None, 3: 1}
    value = {
        "a": table,
        "b": table,
        "nested": [table, recency],
        "slot": _Slotted(table),
        "mixed": [[1], (table,)],
    }
    copied = snapshot(value)
    assert copied["a"] == table and copied["a"] is not table
    assert copied["b"] is copied["a"]
    assert copied["nested"][0] is copied["a"]
    assert copied["slot"].occ is copied["a"]
    assert copied["mixed"][1][0] is copied["a"]
    assert list(copied["nested"][1]) == [7, 3]
    assert copied["nested"][1] is not recency
    table.append(99)
    recency[1] = 1
    assert copied["a"] == [0, 1, 2.5, None, "x"]
    assert copied["nested"][1] == {7: None, 3: 1}
