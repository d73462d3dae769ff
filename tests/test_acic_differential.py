"""Differential lock: the array-backed ACIC equals the naive controller.

The scheme registry builds :class:`repro.core.flat.FlatACICScheme` (the
fused, array-backed hot path); ``tests/reference/acic.py`` keeps the
readable :class:`~reference.acic.ACICScheme` as the executable
reference.  These tests replay identical schedules through both and
require bit-for-bit agreement —

* randomized lookup/fill/prefetch_fill/contains schedules over small
  block spaces (capacity pressure everywhere: i-Filter, CSHR sets,
  i-cache sets), across every constructor ablation the paper uses:
  ``use_ifilter=False``, ``always_insert``, all three
  ``unresolved_policy`` values, audit mode, the predictor variants and
  tiny geometries;
* :class:`~repro.core.cshr.FlatCSHR` against the readable ``CSHR``
  directly;
* full plan-driven ``simulate()`` runs of every registered ``acic-*``
  variant on a 20k-record grid, flat vs naive (the naive one built by
  the registry inside :func:`reference.readable_registry`), comparing
  RunResult scalars *and* every observable scheme statistic.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cshr import FlatCSHR
from repro.core.flat import FlatACICScheme
from repro.core.predictor import (
    BimodalAdmissionPredictor,
    GlobalHistoryAdmissionPredictor,
    TwoLevelAdmissionPredictor,
)
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.mem.cache import CacheConfig
from repro.mem.oracle import NextUseOracle
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from reference import readable_registry
from reference.acic import CSHR, ACICScheme

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

#: Small geometry for schedule tests: 8 sets x 4 ways i-cache, so a
#: few hundred operations hit every capacity limit repeatedly.
TINY_ICACHE = CacheConfig(4 * 64 * 8, 4, name="tiny-l1i")


def predictor_state(predictor):
    """Everything observable about a predictor, for equality checks."""
    state = {"stats": predictor.stats}
    for attr in ("hrt", "pt", "table", "history"):
        if hasattr(predictor, attr):
            value = getattr(predictor, attr)
            state[attr] = list(value) if isinstance(value, list) else value
    if hasattr(predictor, "_queues"):
        state["queues"] = [list(q) for q in predictor._queues]
    return state


def scheme_state(scheme):
    """Full observable state of an ACIC scheme (either implementation)."""
    state = {
        "acic_stats": scheme.stats,
        "icache_stats": scheme.icache.stats,
        "icache_sets": [
            scheme.icache.set_contents(i)
            for i in range(scheme.config.num_sets)
        ],
        "cshr_stats": scheme.cshr.stats,
        "cshr_occupancy": scheme.cshr.occupancy(),
        "predictor": predictor_state(scheme.predictor),
    }
    if scheme.ifilter is not None:
        state["ifilter_stats"] = scheme.ifilter.stats
        state["ifilter_contents"] = list(scheme.ifilter._buffer._lines)
    if scheme.audit is not None:
        state["audit"] = (
            scheme.audit.admitted,
            scheme.audit.victim_distance,
            scheme.audit.contender_distance,
        )
    return state


def random_schedule(seed: int, length: int = 1200, blocks: int = 96):
    """A mixed op schedule over a small block space.

    Lookups dominate (as in the engine) with repeat-block bursts, fills
    follow misses often enough to exercise the admission pipeline, and
    prefetch fills / contains probes are sprinkled in.
    """
    rng = random.Random(seed)
    ops = []
    t = 0
    last = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            block = last if rng.random() < 0.5 else rng.randrange(blocks)
            ops.append(("lookup", block, t))
            last = block
        elif roll < 0.75:
            ops.append(("fill", rng.randrange(blocks), t))
        elif roll < 0.9:
            ops.append(("prefetch_fill", rng.randrange(blocks), t))
        else:
            ops.append(("contains", rng.randrange(blocks), t))
        t += rng.randrange(1, 4)
    return ops


def run_pair(make_kwargs, seed: int):
    """Drive naive + flat schemes through one schedule, step-locked."""
    naive = ACICScheme(**make_kwargs())
    flat = FlatACICScheme(**make_kwargs())
    for op, block, t in random_schedule(seed):
        cycle = t
        if op == "lookup":
            assert naive.lookup(block, t, cycle) == flat.lookup(
                block, t, cycle
            ), (op, block, t)
        elif op == "fill":
            naive.fill(block, t, cycle)
            flat.fill(block, t, cycle)
        elif op == "prefetch_fill":
            naive.prefetch_fill(block, t, cycle)
            flat.prefetch_fill(block, t, cycle)
        else:
            assert naive.contains(block) == flat.contains(block), (block, t)
    assert scheme_state(naive) == scheme_state(flat)
    return naive, flat


class TestScheduleDifferential:
    """Randomized schedules, every constructor ablation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_default_config(self, seed):
        run_pair(lambda: dict(icache_config=TINY_ICACHE, ifilter_slots=4), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_ifilter(self, seed):
        run_pair(
            lambda: dict(icache_config=TINY_ICACHE, use_ifilter=False), seed
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_always_insert(self, seed):
        run_pair(
            lambda: dict(
                icache_config=TINY_ICACHE, ifilter_slots=4, always_insert=True
            ),
            seed,
        )

    @pytest.mark.parametrize("policy", ACICScheme.UNRESOLVED_POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_unresolved_policies(self, policy, seed):
        # One-way CSHR sets so unresolved evictions happen constantly.
        def kwargs():
            return dict(
                icache_config=TINY_ICACHE,
                ifilter_slots=2,
                unresolved_policy=policy,
            )

        naive = ACICScheme(
            cshr=CSHR(entries=8, sets=8, icache_set_bits=3), **kwargs()
        )
        flat = FlatACICScheme(
            cshr=FlatCSHR(entries=8, sets=8, icache_set_bits=3), **kwargs()
        )
        for op, block, t in random_schedule(seed):
            if op == "lookup":
                assert naive.lookup(block, t, t) == flat.lookup(block, t, t)
            elif op == "fill":
                naive.fill(block, t, t)
                flat.fill(block, t, t)
            elif op == "prefetch_fill":
                naive.prefetch_fill(block, t, t)
                flat.prefetch_fill(block, t, t)
        assert scheme_state(naive) == scheme_state(flat)
        if policy != "none":
            assert naive.stats.benefit_of_doubt_trainings > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_audit_mode(self, seed):
        schedule = random_schedule(seed)
        oracle = NextUseOracle([block for _, block, _ in schedule])
        naive, flat = run_pair(
            lambda: dict(
                icache_config=TINY_ICACHE, ifilter_slots=4, audit_oracle=oracle
            ),
            seed,
        )
        assert len(naive.audit) == len(flat.audit)

    @pytest.mark.parametrize(
        "make_predictor",
        [
            lambda: TwoLevelAdmissionPredictor(update_mode="instant"),
            lambda: TwoLevelAdmissionPredictor(
                update_mode="parallel", queue_slots=2, update_latency=7
            ),
            lambda: GlobalHistoryAdmissionPredictor(),
            lambda: BimodalAdmissionPredictor(),
        ],
        ids=["instant", "tiny-queue", "global", "bimodal"],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_predictor_variants(self, make_predictor, seed):
        run_pair(
            lambda: dict(
                icache_config=TINY_ICACHE,
                ifilter_slots=4,
                predictor=make_predictor(),
            ),
            seed,
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_reset_matches(self, seed):
        naive, flat = run_pair(
            lambda: dict(icache_config=TINY_ICACHE, ifilter_slots=4), seed
        )
        naive.reset()
        flat.reset()
        assert scheme_state(naive) == scheme_state(flat)
        # The flat scheme must have rebound its cached internals: replay
        # a second schedule after reset and stay locked.
        for op, block, t in random_schedule(seed + 1000):
            if op == "lookup":
                assert naive.lookup(block, t, t) == flat.lookup(block, t, t)
            elif op == "fill":
                naive.fill(block, t, t)
                flat.fill(block, t, t)
            elif op == "prefetch_fill":
                naive.prefetch_fill(block, t, t)
                flat.prefetch_fill(block, t, t)
        assert scheme_state(naive) == scheme_state(flat)


class TestFlatCSHRDifferential:
    """FlatCSHR against the entry-based CSHR, operation by operation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_insert_search(self, seed):
        rng = random.Random(seed)
        naive = CSHR(entries=16, sets=4, tag_bits=5, icache_set_bits=6)
        flat = FlatCSHR(entries=16, sets=4, tag_bits=5, icache_set_bits=6)
        for _ in range(800):
            icache_set = rng.randrange(64)
            if rng.random() < 0.5:
                victim = rng.randrange(1 << 12)
                contender = rng.randrange(1 << 12)
                evicted_naive = naive.insert(victim, contender, icache_set)
                evicted_flat = flat.insert(victim, contender, icache_set)
                assert (
                    None if evicted_naive is None else evicted_naive.victim_tag
                ) == evicted_flat
            else:
                block = rng.randrange(1 << 12)
                v_naive, c_naive = naive.search(block, icache_set)
                v_flat, c_flat = flat.search(block, icache_set)
                assert (
                    None if v_naive is None else v_naive.victim_tag
                ) == v_flat
                assert [e.victim_tag for e in c_naive] == c_flat
            assert naive.occupancy() == flat.occupancy()
        assert naive.stats == flat.stats

    def test_geometry_validation_matches(self):
        for bad in (
            dict(entries=30, sets=4),
            dict(entries=256, sets=256, icache_set_bits=6),
        ):
            with pytest.raises(ValueError):
                CSHR(**bad)
            with pytest.raises(ValueError):
                FlatCSHR(**bad)


class TestRegisteredVariants20k:
    """Every registered acic-* scheme, flat vs naive, full 20k grid."""

    WORKLOAD = "media-streaming"
    RECORDS = 20_000

    @pytest.fixture(scope="class")
    def grid_trace(self):
        return get_workload(self.WORKLOAD).trace(records=self.RECORDS)

    @pytest.mark.parametrize(
        "name", sorted(n for n in available_schemes() if n.startswith("acic"))
    )
    def test_scalars_and_stats_locked_20k(self, name, grid_trace):
        from repro.frontend.plan import cached_plan

        plan = cached_plan(grid_trace, DEFAULT_MACHINE, "fdp")

        ctx = SchemeContext(trace=grid_trace, machine=DEFAULT_MACHINE)
        with readable_registry():
            naive_scheme = make_scheme(name, ctx)
        assert isinstance(naive_scheme, ACICScheme)
        naive = simulate(
            grid_trace, naive_scheme, machine=DEFAULT_MACHINE, plan=plan
        )

        ctx = SchemeContext(trace=grid_trace, machine=DEFAULT_MACHINE)
        flat_scheme = make_scheme(name, ctx)
        assert isinstance(flat_scheme, FlatACICScheme)
        flat = simulate(
            grid_trace, flat_scheme, machine=DEFAULT_MACHINE, plan=plan
        )

        assert {k: getattr(naive, k) for k in SCALARS} == {
            k: getattr(flat, k) for k in SCALARS
        }
        assert scheme_state(naive_scheme) == scheme_state(flat_scheme)
