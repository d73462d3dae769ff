"""Differential lock: the array-backed ACIC equals the naive controller.

The scheme registry builds :class:`repro.core.flat.FlatACICScheme` (the
fused, array-backed hot path); ``tests/reference/acic.py`` keeps the
readable :class:`~reference.acic.ACICScheme` as the executable
reference.  These tests replay identical schedules through both and
require bit-for-bit agreement —

* randomized lookup/fill/prefetch_fill/contains schedules over small
  block spaces (capacity pressure everywhere: i-Filter, CSHR sets,
  i-cache sets), across every constructor ablation the paper uses:
  ``use_ifilter=False``, an admit-every-victim predictor, all three
  ``unresolved_policy`` values, audit mode, the predictor variants and
  tiny geometries, including multi-way tiny CSHRs whose inserts,
  resolutions of both kinds and unresolved evictions the schedule
  drives (the flat controller fuses :class:`~repro.core.cshr.FlatCSHR`'s
  insert and search, so the CSHR is locked through the controller);
* ``repeat_hits`` against the per-record lookups it stands in for, with
  the block in the i-Filter, in the i-cache and right after a CSHR
  resolution, across the ablations that change where a hit lands;
* full plan-driven ``simulate()`` runs of every registered ``acic-*``
  variant on a 20k-record grid, flat vs naive (the naive one built by
  the registry inside :func:`reference.readable_registry`), comparing
  RunResult scalars *and* every observable scheme statistic.
"""

from __future__ import annotations

import random

import pytest

from repro.common.bitops import L1I_SET_BITS
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
from reference.acic import CSHR, ACICScheme, AdmitAllPredictor
from reference.batching import lockstep_batched
from reference.state import ordered

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


def cshr_entries(cshr):
    """Per-set ``(victim tag, contender tag)`` pairs, oldest first."""
    if isinstance(cshr, CSHR):
        return [[(e.victim_tag, e.contender_tag) for e in s] for s in cshr._sets]
    return [
        list(zip(vt, ct))
        for vt, ct in zip(cshr._victim_tags, cshr._contender_tags)
    ]


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
        "cshr_entries": cshr_entries(scheme.cshr),
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


def run_pair(make_kwargs, seed: int, cshr=None, blocks: int = 96):
    """Drive naive + flat schemes through one schedule, step-locked.

    ``cshr`` is a geometry (``CSHR``/``FlatCSHR`` kwargs) each side
    builds its own CSHR from; None keeps the controllers' default.
    """
    naive_kwargs, flat_kwargs = make_kwargs(), make_kwargs()
    if cshr is not None:
        naive_kwargs["cshr"] = CSHR(**cshr)
        flat_kwargs["cshr"] = FlatCSHR(**cshr)
    naive = ACICScheme(**naive_kwargs)
    flat = FlatACICScheme(**flat_kwargs)
    for op, block, t in random_schedule(seed, blocks=blocks):
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
                icache_config=TINY_ICACHE,
                ifilter_slots=4,
                predictor=AdmitAllPredictor(),
            ),
            seed,
        )

    @pytest.mark.parametrize("policy", ACICScheme.UNRESOLVED_POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_unresolved_policies(self, policy, seed):
        # One-way CSHR sets so unresolved evictions happen constantly.
        naive, _ = run_pair(
            lambda: dict(
                icache_config=TINY_ICACHE,
                ifilter_slots=2,
                unresolved_policy=policy,
            ),
            seed,
            cshr=dict(entries=8, sets=8, icache_set_bits=3),
        )
        if policy != "none":
            assert naive.stats.benefit_of_doubt_trainings > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_multiway_tiny_cshr(self, seed):
        """4 sets x 4 ways with 5-bit tags, one CSHR set per two i-cache
        sets, over 64 regions (so the 5-bit tags alias): the schedule
        must open comparisons, resolve them on both sides and evict
        some unresolved, all in lockstep."""
        naive, flat = run_pair(
            lambda: dict(icache_config=TINY_ICACHE, ifilter_slots=4),
            seed,
            cshr=dict(entries=16, sets=4, tag_bits=5, icache_set_bits=3),
            blocks=4096,
        )
        stats = flat.cshr.stats
        assert stats.inserts > 0
        assert stats.victim_resolutions > 0
        assert stats.contender_resolutions > 0
        assert stats.unresolved_evictions > 0
        assert naive.cshr.stats == stats

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


#: Constructor kwargs of the variants whose hits land differently:
#: default, no i-Filter, audited, instant predictor updates.
REPEAT_VARIANTS = {
    "acic": lambda oracle: dict(icache_config=TINY_ICACHE, ifilter_slots=4),
    "acic-nofilter": lambda oracle: dict(
        icache_config=TINY_ICACHE, use_ifilter=False
    ),
    "acic-audit": lambda oracle: dict(
        icache_config=TINY_ICACHE, ifilter_slots=4, audit_oracle=oracle
    ),
    "acic-instant": lambda oracle: dict(
        icache_config=TINY_ICACHE,
        ifilter_slots=4,
        predictor=TwoLevelAdmissionPredictor(update_mode="instant"),
    ),
}


def _drive_schedule(scheme, schedule):
    for op, block, t in schedule:
        if op == "contains":
            scheme.contains(block)
        else:
            getattr(scheme, op)(block, t, t)


def _pending_in_cshr(scheme, block):
    """True when ``block``'s tag waits in its CSHR set (a lookup resolves it)."""
    si = (block & scheme._ic_set_mask) >> scheme._cshr_shift
    tag = (block >> L1I_SET_BITS) & scheme._cshr_tag_mask
    return tag in scheme._cshr_vt[si] or tag in scheme._cshr_ct[si]


def _pick_block(scheme, where):
    """A resident block sitting ``where``, other than the last looked up.

    ``where`` is ``ifilter`` or ``icache`` (no comparison pending for
    the block), or ``cshr`` (anywhere, with one pending).
    """
    last = scheme._last_resolved_block
    if_lines = scheme._if_lines or {}
    if where == "ifilter":
        resident = list(if_lines)
    elif where == "icache":
        resident = [
            b for lines in scheme._ic_lines for b in lines if b not in if_lines
        ]
    else:
        resident = [b for b in range(96) if scheme.contains(b)]
    for block in resident:
        if block != last and _pending_in_cshr(scheme, block) == (where == "cshr"):
            return block
    return None


class TestRepeatHits:
    """``repeat_hits`` equals the per-record lookups it stands in for."""

    @pytest.mark.parametrize("variant", sorted(REPEAT_VARIANTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_lockstep(self, variant, seed):
        schedule = random_schedule(seed, length=2400)
        oracle = NextUseOracle([block for _, block, _ in schedule])
        real, batched = (
            FlatACICScheme(**REPEAT_VARIANTS[variant](oracle)) for _ in "ab"
        )
        where = set()

        def check(a, b, block, count):
            if_lines = b._if_lines
            where.add("ifilter" if if_lines and block in if_lines else "icache")
            assert scheme_state(a) == scheme_state(b), (block, count)
            assert ordered(a) == ordered(b), (block, count)

        steps = ((op, block, t, t) for op, block, t in schedule)
        runs = lockstep_batched(real, batched, steps, check)
        assert len(runs) > 20
        assert where == ({"icache"} if variant == "acic-nofilter" else {"ifilter", "icache"})

    @pytest.mark.parametrize(
        "variant,where",
        [
            (variant, where)
            for variant in sorted(REPEAT_VARIANTS)
            for where in ("ifilter", "icache", "cshr")
            if (variant, where) != ("acic-nofilter", "ifilter")
        ],
    )
    def test_repeat_after_first_lookup(self, variant, where):
        """Directed: a real lookup that hits ``where`` (for ``cshr``:
        resolving a pending comparison), then 9 more lookups vs one
        ``repeat_hits``."""
        for seed in range(40):
            schedule = random_schedule(seed)
            oracle = NextUseOracle([block for _, block, _ in schedule])
            pair = [
                FlatACICScheme(**REPEAT_VARIANTS[variant](oracle))
                for _ in range(2)
            ]
            for scheme in pair:
                _drive_schedule(scheme, schedule)
            block = _pick_block(pair[0], where)
            if block is not None:
                break
        assert block is not None, f"no schedule leaves a block in {where}"
        t0 = schedule[-1][2] + 1
        resolved = pair[0].cshr.stats.resolutions
        for scheme in pair:
            assert scheme.lookup(block, t0, t0)
        assert (pair[0].cshr.stats.resolutions > resolved) == (where == "cshr")
        for t in range(t0 + 1, t0 + 10):
            assert pair[0].lookup(block, t, t)
        pair[1].repeat_hits(block, 9, t0 + 9)
        assert scheme_state(pair[0]) == scheme_state(pair[1])
        assert ordered(pair[0]) == ordered(pair[1])


class TestFlatCSHRDifferential:
    """FlatCSHR's geometry checks against the entry-based CSHR's."""

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
