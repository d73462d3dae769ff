"""The flat replacement twins are bit-identical to their references.

``FlatGHRPScheme``, ``FlatHawkeyeScheme``, ``FlatLRUScheme`` and
``FlatOPTScheme`` (the registry's production ``ghrp``/``harmony``/
``lru``/``opt`` schemes) re-implement ``PlainCacheScheme`` around
``GHRPPolicy``/``HawkeyePolicy``/``LRUPolicy``/``BeladyOPTPolicy`` (the
readable GHRP, Hawkeye and OPT policies live in
:mod:`reference.policies`) as fused closures with merged line payloads,
packed occupancy vectors and deferred counters.  This suite pins them
to the readable references four ways, comparing a twin with its
reference through :func:`reference.state.readable_shape` (the twin
projected into the ``PlainCacheScheme`` shape) and two twins through
:func:`reference.state.ordered`:

* **op-by-op** — randomized lookup/fill/prefetch/contains schedules on
  a tiny geometry, verdict-for-verdict, with mid-run state comparison
  and a mid-run checkpoint (a pickle) of each twin that must replay
  the tail like the uninterrupted pair; OPT also runs with prefetch
  fills of blocks never used again, against an oracle decoupled from
  the schedule (finite next-use ties), and through directed tie and
  ``incoming == furthest`` bypass cases;
* **repeat hits** — ``repeat_hits`` on the LRU twin (all three
  registered geometries) and the OPT, GHRP and Harmony twins leaves
  the state exactly as the per-record lookups it stands in for would,
  over runs long enough to cross GHRP's GHR fixed point and Harmony's
  whole OPTgen window;
* **deferred state** — the stats counters and GHRP's GHR accumulate in
  closure cells mid-run and must flush exactly at ``finish_trace`` and
  when pickled;
* **whole-engine** — windowed (checkpoint/resume) runs equal one
  undisturbed pass, a checkpoint of one twin refuses to resume into
  the other, and the 20k benchmark grid's scalars are identical
  between the registry's flat build and its readable one
  (:func:`reference.readable_registry`);
* **packed sampler mechanics** — the 8-bit-lane occupancy vector
  (pack/unpack round-trip, lane tables, the one-add "any quantum
  full?" test) against the reference ``_OPTgen``, plus the bounded
  hash memos and the pre-pass cache (corrupt/stale/geometry paths).
"""

from __future__ import annotations

import gc
import pickle
import random
import shutil
import weakref

import numpy as np
import pytest

from repro.common.artifacts import entry_name, sidecar_path
from repro.harness.experiment import run_experiment
from repro.harness.schemes import PlainCacheScheme, SchemeContext, make_scheme
from repro.mem import prepass as prepass_mod
from repro.mem.cache import CacheConfig
from repro.mem.policies import flat_ghrp, flat_hawkeye
from repro.mem.policies.flat_ghrp import FlatGHRPScheme
from repro.mem.policies.flat_hawkeye import FlatHawkeyeScheme, _lane_tables
from repro.mem.policies.flat_plain import FlatLRUScheme, FlatOPTScheme
from repro.mem.oracle import NextUseOracle
from repro.uarch.params import (
    BASELINE_L1I,
    DEFAULT_MACHINE,
    LARGER_L1I_36K,
    LARGER_L1I_40K,
)
from repro.workloads.profiles import get_workload
from reference import (
    readable_ghrp,
    readable_hawkeye,
    readable_lru,
    readable_opt,
    readable_registry,
)
from reference.batching import lockstep_batched
from reference.policies import GHRPPolicy, HawkeyePolicy, _OPTgen
from reference.state import ordered, pack_occ, readable_shape, unpack_occ

#: Tiny geometry (8 sets x 4 ways) so sets fill, evict and prune hard.
CONFIG = CacheConfig(4 * 64 * 8, 4, name="L1i")

KINDS = ("ghrp", "harmony", "lru", "opt")

#: The twins that bind the shared replacement pre-pass.
PREPASS_KINDS = ("ghrp", "harmony")

#: The plain-policy twins; their schedules add never-reused prefetches.
PLAIN_KINDS = ("lru", "opt")

STATS_FIELDS = (
    "demand_accesses",
    "demand_hits",
    "demand_fills",
    "prefetch_fills",
    "evictions",
    "bypasses",
)

FLAT_CLASSES = {
    "ghrp": FlatGHRPScheme,
    "harmony": FlatHawkeyeScheme,
    "lru": FlatLRUScheme,
    "opt": FlatOPTScheme,
}


def _flat(kind, config, oracle=None):
    if kind == "opt":
        return FlatOPTScheme(config, oracle)
    return FLAT_CLASSES[kind](config)


def _readable(kind, config, oracle=None):
    if kind == "opt":
        return readable_opt(config, oracle)
    build = {
        "ghrp": readable_ghrp,
        "harmony": readable_hawkeye,
        "lru": readable_lru,
    }[kind]
    return build(config)


def _oracle_for(ops):
    """Next-use oracle over the schedule's own block stream."""
    return NextUseOracle([block for _, block in ops])


def _make_pair(kind, oracle=None):
    """(flat twin, readable reference) with identical construction."""
    return _flat(kind, CONFIG, oracle), _readable(kind, CONFIG, oracle)


def _schedule(seed, length=9000, blocks=160, ghosts=False, bursts=False):
    """Seeded op soup with re-reference locality (hits and misses).

    With ``ghosts`` a fifth of the prefetch fills name a fresh block id
    that no other op uses: never accessed again, whatever the oracle.
    With ``bursts`` one lookup in fifty is followed by a fill of its
    block and 2..149 more lookups of it: the long repeat-hit runs of
    real fetch.
    """
    rng = random.Random(seed)
    ops = []
    last = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            block = last if rng.random() < 0.6 else rng.randrange(blocks)
            ops.append(("lookup", block))
            if bursts and rng.random() < 0.02:
                ops.append(("fill", block))
                ops.extend([("lookup", block)] * rng.randrange(2, 150))
            last = block
        elif roll < 0.78:
            ops.append(("fill", rng.randrange(blocks)))
        elif roll < 0.92:
            block = rng.randrange(blocks)
            if ghosts and rng.random() < 0.2:
                block = blocks + len(ops)
            ops.append(("prefetch_fill", block))
        else:
            ops.append(("contains", rng.randrange(blocks)))
    return ops


def _drive(scheme, ops, lo, hi):
    """Run ops[lo:hi], returning every observable verdict."""
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


def _drive_ops(scheme, ops):
    """Run explicit ``(t, op, block)`` steps; returns the verdicts."""
    out = []
    for t, op, block in ops:
        if op == "lookup":
            out.append(scheme.lookup(block, t, t))
        elif op == "fill":
            scheme.fill(block, t, t)
        else:
            scheme.prefetch_fill(block, t, t)
    return out


def _norm(x):
    """Order-insensitive normal form for readable-shape comparison.

    Dict *insertion order* is recency metadata inside the cache's set
    dicts but incidental everywhere else (the twins build their side
    dicts in a different order than the references); comparing via
    sorted items ignores it while still requiring identical contents.
    The per-set line dicts are compared separately, order included,
    by ``_assert_same``.
    """
    if isinstance(x, dict):
        return sorted((k, _norm(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_norm(v) for v in x]
    if hasattr(x, "__dict__") and not isinstance(x, type):
        return [type(x).__name__, _norm(vars(x))]
    slots = [
        name
        for klass in type(x).__mro__
        for name in getattr(klass, "__slots__", ())
    ]
    if slots:
        return [
            type(x).__name__,
            [(name, _norm(getattr(x, name))) for name in slots],
        ]
    return x


def _assert_same(a, b, label):
    """Two schemes (flat or readable) agree in the readable shape.

    The set dicts must match *including* recency (insertion) order.
    """
    shape_a, shape_b = readable_shape(a), readable_shape(b)
    assert _norm(shape_a) == _norm(shape_b), f"{label}: state diverged"
    sets_a = [list(lines.items()) for lines in shape_a["icache"]["sets"]]
    sets_b = [list(lines.items()) for lines in shape_b["icache"]["sets"]]
    assert sets_a == sets_b, f"{label}: set contents/recency diverged"


class TestLockstep:
    """Op-by-op equivalence, and checkpoints of either twin that resume
    into the same behaviour."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_and_checkpoint_interchange(self, kind, seed):
        ops = _schedule(seed, ghosts=kind in PLAIN_KINDS)
        oracle = _oracle_for(ops)
        flat, ref = _make_pair(kind, oracle)
        cut = random.Random(seed + 50).randrange(3000, 7000)

        assert _drive(flat, ops, 0, cut) == _drive(ref, ops, 0, cut)
        _assert_same(flat, ref, f"{kind} mid-run")

        # Mid-run checkpoints, through the pickle an engine capture
        # uses: all four schemes then replay the tail identically.
        flat2, ref2 = (pickle.loads(pickle.dumps(s)) for s in (flat, ref))
        assert type(flat2) is type(flat) and type(ref2) is type(ref)
        tails = [_drive(s, ops, cut, len(ops)) for s in (flat, ref, flat2, ref2)]
        assert tails[0] == tails[1] == tails[2] == tails[3]
        for i, other in enumerate((ref, flat2, ref2), 1):
            _assert_same(flat, other, f"{kind} final {i}")

    @pytest.mark.parametrize("kind", PREPASS_KINDS)
    def test_lockstep_without_prepass(self, kind):
        """The memo-hash fallback path is the same machine."""
        ops = _schedule(3)
        flat, ref = _make_pair(kind)  # prepare_trace never called
        assert flat._sig_of_t is None
        assert _drive(flat, ops, 0, len(ops)) == _drive(ref, ops, 0, len(ops))


class TestOPTTwin:
    """OPT's victim ties, bypasses and oracle reads, against the reference."""

    #: One set, two ways: every fill past the second contends.
    PAIR = CacheConfig(2 * 64, 2, name="L1i")

    def _pair(self, seq, config=None):
        oracle = NextUseOracle(seq)
        config = config or self.PAIR
        return FlatOPTScheme(config, oracle), readable_opt(config, oracle)

    @staticmethod
    def _both(pair, ops):
        outs = [_drive_ops(s, ops) for s in pair]
        assert outs[0] == outs[1]
        _assert_same(pair[0], pair[1], "opt directed")
        return readable_shape(pair[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_with_decoupled_oracle(self, seed):
        """An oracle over an unrelated stream makes finite next uses tie."""
        ops = _schedule(seed, ghosts=True)
        rng = random.Random(seed + 300)
        oracle = NextUseOracle([rng.randrange(40) for _ in ops])
        flat = FlatOPTScheme(CONFIG, oracle)
        ref = readable_opt(CONFIG, oracle)
        assert _drive(flat, ops, 0, len(ops)) == _drive(ref, ops, 0, len(ops))
        flat.finish_trace()
        stats = ref.icache.stats
        assert stats.bypasses > 0
        for field in STATS_FIELDS:
            assert getattr(flat.icache.stats, field) == getattr(stats, field)
        _assert_same(flat, ref, "decoupled")

    def test_tie_evicts_lru_most_furthest_line(self):
        # Blocks 1 and 2 are never used again (two NEVER payloads);
        # block 3 comes back, so it is admitted and evicts LRU-most 1.
        pair = self._pair([1, 2, 3, 3])
        state = self._both(pair, [(0, "fill", 1), (1, "fill", 2), (2, "fill", 3)])
        assert list(state["icache"]["sets"][0]) == [2, 3]
        assert state["icache"]["stats"]["evictions"] == 1

    def test_incoming_equal_to_furthest_bypasses(self):
        # Line 1 is filled at t=0 and stores next_use_at(0) == 2 (the
        # next access to block 5); the incoming 5 at t=1 is next used
        # at 2 too: equal, so OPT keeps 1 and drops 5.
        config = CacheConfig(64, 1, name="L1i")
        pair = self._pair([5, 7, 5], config)
        state = self._both(pair, [(0, "fill", 1), (1, "fill", 5)])
        assert list(state["icache"]["sets"][0]) == [1]
        assert state["icache"]["stats"]["bypasses"] == 1

    def test_never_reused_prefetch_is_bypassed(self):
        pair = self._pair([1, 2, 1, 2, 9, 1, 2])
        state = self._both(
            pair,
            [(0, "fill", 1), (1, "fill", 2), (4, "prefetch_fill", 99)],
        )
        assert list(state["icache"]["sets"][0]) == [1, 2]
        assert state["icache"]["stats"]["bypasses"] == 1
        assert state["icache"]["stats"]["prefetch_fills"] == 0

    def test_prefetch_fill_stores_next_use_of_block(self):
        # A prefetch at t=0 stores next_use_of(4, 0) == 3, not
        # next_use_at(0) == 2 (the record's own block 1); a demand fill
        # at t=1 stores next_use_at(1) == 4.
        seq = [1, 6, 1, 4, 6]
        flat, ref = self._pair(seq)
        ops = [(0, "prefetch_fill", 4), (1, "fill", 6)]
        outs = [_drive_ops(s, ops) for s in (flat, ref)]
        assert outs[0] == outs[1]
        assert flat._lines_by_set[0] == {4: 3, 6: 4}
        projected = readable_shape(flat)["icache"]["policy"]["_next_use"]
        assert ref.icache.policy._next_use == projected


class TestDeferredCounters:
    """Stats (and GHRP's GHR) flush at ``finish_trace`` and when pickled."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_finish_trace_flushes_stats(self, kind):
        ops = _schedule(4, length=1500, ghosts=kind in PLAIN_KINDS)
        flat, ref = _make_pair(kind, _oracle_for(ops))
        _drive(ref, ops, 0, len(ops))
        _drive(flat, ops, 0, len(ops))
        # Mid-run the authoritative stats object is stale by design...
        assert flat.icache.stats.demand_accesses == 0
        flat.finish_trace()
        # ...and exact after the engine's end-of-run hook.
        for field in STATS_FIELDS:
            assert getattr(flat.icache.stats, field) == getattr(
                ref.icache.stats, field
            ), field
        # Idempotent: a second flush adds nothing.
        flat.finish_trace()
        assert (
            flat.icache.stats.demand_accesses
            == ref.icache.stats.demand_accesses
        )

    def test_ghr_defers_and_flushes(self):
        ops = _schedule(5, length=1500)
        flat, ref = _make_pair("ghrp")
        _drive(ref, ops, 0, len(ops))
        _drive(flat, ops, 0, len(ops))
        ref_policy = ref.icache.policy
        assert ref_policy.ghr != 0  # schedule actually moved the GHR
        flat.finish_trace()
        assert flat.ghr == ref_policy.ghr

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_flushes_deferred_deltas(self, kind):
        """A pickle carries the deferred counters exactly once."""
        ops = _schedule(6, length=1200)
        flat, ref = _make_pair(kind, _oracle_for(ops))
        _drive(ref, ops, 0, 600)
        _drive(flat, ops, 0, 600)  # deferred deltas now pending
        copy = pickle.loads(pickle.dumps(flat))
        # The pickle flushed the original; the copy starts with no
        # deltas of its own, so neither counts the first half twice.
        for scheme in (flat, copy):
            scheme.finish_trace()
            for field in STATS_FIELDS:
                assert getattr(scheme.icache.stats, field) == getattr(
                    ref.icache.stats, field
                ), field
        _drive(ref, ops, 600, len(ops))
        for scheme in (flat, copy):
            _drive(scheme, ops, 600, len(ops))
            _assert_same(scheme, ref, f"{kind} after the pickle")


#: The registered geometries of the LRU twin (lru, 36kb-l1i, 40kb-l1i)
#: and the OPT/GHRP/Harmony twins', plus the tiny one that evicts hardest.
REPEAT_CASES = (
    ("lru", BASELINE_L1I),
    ("lru", LARGER_L1I_36K),
    ("lru", LARGER_L1I_40K),
    ("opt", BASELINE_L1I),
    ("ghrp", BASELINE_L1I),
    ("harmony", BASELINE_L1I),
    ("lru", CONFIG),
    ("opt", CONFIG),
    ("ghrp", CONFIG),
    ("harmony", CONFIG),
)


class TestRepeatHits:
    """``repeat_hits`` equals the per-record lookups it stands in for."""

    @pytest.mark.parametrize(
        "kind,config", REPEAT_CASES,
        ids=[f"{kind}-{config.name}-{config.ways}w" for kind, config in REPEAT_CASES],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_lockstep(self, kind, config, seed):
        # Four blocks per line: every set fills, evicts and re-misses.
        ops = _schedule(
            seed, blocks=4 * config.num_blocks, ghosts=True, bursts=True
        )
        oracle = _oracle_for(ops)
        real, batched = _flat(kind, config, oracle), _flat(kind, config, oracle)
        checked = []

        def check(a, b, block, count):
            # The first 50 runs and the first 30 past GHRP's GHR fixed
            # point (4 pushes of one signature).  Equal pickles: same
            # contents in the same dict (recency) order.
            checked.append(count)
            long_runs = sum(c > 4 for c in checked)
            if len(checked) <= 50 or (count > 4 and long_runs <= 30):
                assert ordered(a) == ordered(b), (
                    f"{kind} after {count} repeats of {block}: state diverged"
                )

        steps = ((op, block, t, t) for t, (op, block) in enumerate(ops))
        runs = lockstep_batched(real, batched, steps, check)
        counts = [count for _, count in runs]
        assert len(runs) > 100
        # Runs cross GHRP's GHR fixed point and Harmony's whole
        # 64-quantum OPTgen window.
        assert sum(count > 4 for count in counts) > 20
        assert sum(count >= 64 for count in counts) > 5
        assert ordered(real) == ordered(batched), f"{kind} final"

    @pytest.mark.parametrize("kind", ("ghrp", "harmony"))
    def test_closed_form_at_every_counter_value(self, kind):
        """GHRP's and Harmony's closed forms from every counter value.

        Random schedules mostly leave GHRP's counters at 0 by the fixed
        point and Harmony's far from saturation.  Here every counter
        starts at each legal value before runs that end just past the
        fixed point (5..9), or that cross Harmony's window (63..130).
        """
        warm = _schedule(7, length=600)
        block, t = 5, len(warm)
        module = flat_ghrp if kind == "ghrp" else flat_hawkeye
        for start in range(module.COUNTER_MAX + 1):
            for count in (1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130):
                real, batched = _flat(kind, CONFIG), _flat(kind, CONFIG)
                for scheme in (real, batched):
                    _drive(scheme, warm, 0, t)
                    tables = (
                        scheme.tables if kind == "ghrp" else [scheme.predictor]
                    )
                    for table in tables:
                        table[:] = [start] * len(table)
                    scheme.fill(block, t, t)
                    assert scheme.lookup(block, t + 1, t + 1)
                for k in range(count):
                    real.lookup(block, t + 2 + k, t + 2 + k)
                batched.repeat_hits(block, count, t + 1 + count)
                assert ordered(real) == ordered(batched), (
                    f"{kind}: {count} repeats from counters at {start}"
                )


RECORDS = 6_000
WORKLOAD = "media-streaming"

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


def _scalars(run):
    return {k: getattr(run, k) for k in SCALARS}


@pytest.fixture(scope="module")
def trace():
    return get_workload(WORKLOAD).trace(records=RECORDS)


@pytest.fixture(scope="module")
def context(trace):
    return SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


class TestEngineChunked:
    """Checkpoint/resume through the engine, flat and readable."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_resume_into_other_twin_rejected(self, kind, trace, context):
        """A capture of one twin resumes only into its own class.

        A capture is the pickled twin itself, so resuming it with the
        other implementation would silently continue the captured one.
        """
        from repro.frontend.plan import cached_plan
        from repro.uarch.timing import simulate

        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        builders = (
            lambda: _flat(kind, context.l1i_config, context.oracle),
            lambda: _readable(kind, context.l1i_config, context.oracle),
        )
        for make, other in (builders, builders[::-1]):
            captured = []
            simulate(
                trace,
                make(),
                machine=DEFAULT_MACHINE,
                plan=plan,
                checkpoint_every=1_300,
                on_checkpoint=lambda s: captured.append(s) or True,
            )
            state = pickle.loads(pickle.dumps(captured[-1]))
            with pytest.raises(ValueError, match="resume state holds a"):
                simulate(
                    trace,
                    other(),
                    machine=DEFAULT_MACHINE,
                    plan=plan,
                    resume=state,
                )

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_experiment_checkpoint_env_roundtrip(
        self, kind, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        plain = run_experiment(WORKLOAD, kind, records=RECORDS)
        monkeypatch.setenv("REPRO_SHARD_WINDOW", "2000")
        windowed = run_experiment(WORKLOAD, kind, records=RECORDS)
        assert _scalars(windowed.run) == _scalars(plain.run)
        assert not list((tmp_path / "shards").glob("*"))


class TestFlatReadableGrid:
    """Registry-level equivalence on the benchmark grid."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_readable_registry_builds_readable(self, kind, context):
        with readable_registry():
            assert isinstance(make_scheme(kind, context), PlainCacheScheme)
        assert isinstance(make_scheme(kind, context), FLAT_CLASSES[kind])

    @pytest.mark.parametrize("kind", KINDS + ("36kb-l1i", "40kb-l1i"))
    @pytest.mark.parametrize("prefetcher", ["fdp", "none"])
    def test_scalars_identical_on_20k_grid(
        self, kind, prefetcher, tmp_path, monkeypatch
    ):
        """The bench grid itself: 20k records, flat vs readable."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        flat = run_experiment(
            WORKLOAD, kind, prefetcher=prefetcher, records=20_000
        )
        with readable_registry():
            readable = run_experiment(
                WORKLOAD, kind, prefetcher=prefetcher, records=20_000
            )
        assert isinstance(readable.run.scheme, PlainCacheScheme)
        assert _scalars(flat.run) == _scalars(readable.run)


class TestPackedOccupancy:
    """The 8-bit-lane occupancy vector against the reference _OPTgen."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pack_unpack_roundtrip(self, seed):
        rng = random.Random(seed)
        for window in (4, 64):
            lanes = [rng.randrange(128) for _ in range(window)]
            assert unpack_occ(pack_occ(lanes), window) == lanes

    def test_lane_tables_shapes(self):
        window = 16
        ones, clears = _lane_tables(window)
        for length in range(window + 1):
            assert ones[length] == sum(
                1 << (lane << 3) for lane in range(length)
            )
        for lane in range(window):
            packed = pack_occ([0x7F] * window)
            cleared = packed & clears[lane]
            lanes = unpack_occ(cleared, window)
            assert lanes[lane] == 0
            assert all(
                lanes[i] == 0x7F for i in range(window) if i != lane
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_lane_test_matches_reference(self, seed):
        """One add + one mask answers "any quantum full?" exactly."""
        rng = random.Random(seed)
        window, capacity = 8, 4
        ones_table, _ = _lane_tables(window)
        pad = 128 - capacity
        for _ in range(300):
            lanes = [rng.randrange(capacity + 1) for _ in range(window)]
            start = rng.randrange(window)
            length = rng.randrange(1, window)
            if start + length <= window:
                ones = ones_table[length] << (start << 3)
                span = range(start, start + length)
            else:
                head = window - start
                ones = (ones_table[head] << (start << 3)) | ones_table[
                    length - head
                ]
                span = [
                    lane % window for lane in range(start, start + length)
                ]
            packed = pack_occ(lanes)
            any_full = any(lanes[lane] >= capacity for lane in span)
            assert bool((packed + ones * pad) & (ones << 7)) == any_full

    @pytest.mark.parametrize("seed", [0, 1])
    def test_optgen_lockstep(self, seed):
        """Drive the reference _OPTgen and a packed mirror in parallel."""
        rng = random.Random(seed)
        capacity, window = 4, 8
        gen = _OPTgen(capacity, window)
        ones_table, clears = _lane_tables(window)
        pad = 128 - capacity
        occ = 0
        time = 0
        history = {}
        for step in range(500):
            block = rng.randrange(12)
            last = history.get(block)
            if last is not None:
                expect = gen.opt_would_hit(last)
                # Packed mirror of opt_would_hit + charge-on-hit.
                length = time - last
                if length >= window or length < 0:
                    got = False
                elif length == 0:
                    got = True
                else:
                    start = last % window
                    if start + length <= window:
                        ones = ones_table[length] << (start << 3)
                    else:
                        head = window - start
                        ones = (
                            ones_table[head] << (start << 3)
                        ) | ones_table[length - head]
                    if (occ + ones * pad) & (ones << 7):
                        got = False
                    else:
                        occ += ones
                        got = True
                assert got == expect, f"step {step}"
            gen.advance()
            time += 1
            if occ:
                occ &= clears[time % window]
            history[block] = time
            assert unpack_occ(occ, window) == gen.occ
            assert time == gen.time

    def test_ways_bounds_enforced(self):
        big = CacheConfig(4 * 64 * 128, 128, name="L1i")
        with pytest.raises(ValueError, match="packed occupancy"):
            FlatHawkeyeScheme(big)


class TestBoundedMemos:
    """The hash memos stay bounded and never change behaviour."""

    def test_ghrp_memos_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(flat_ghrp, "_MEMO_CAP", 16)
        ops = _schedule(11, length=4000, blocks=600)
        flat, _ = _make_pair("ghrp")
        capped = _drive(flat, ops, 0, len(ops))
        assert len(flat._sig_memo) <= 16
        assert len(flat._indices_memo) <= 16
        monkeypatch.setattr(flat_ghrp, "_MEMO_CAP", 1 << 20)
        uncapped, _ = _make_pair("ghrp")
        assert capped == _drive(uncapped, ops, 0, len(ops))
        flat.finish_trace()
        uncapped.finish_trace()
        _assert_same(flat, uncapped, "ghrp memo cap")

    def test_hawkeye_memo_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(flat_hawkeye, "_MEMO_CAP", 16)
        ops = _schedule(12, length=4000, blocks=600)
        flat, _ = _make_pair("harmony")
        capped = _drive(flat, ops, 0, len(ops))
        assert len(flat._sig_memo) <= 16
        monkeypatch.setattr(flat_hawkeye, "_MEMO_CAP", 1 << 20)
        uncapped, _ = _make_pair("harmony")
        assert capped == _drive(uncapped, ops, 0, len(ops))
        flat.finish_trace()
        uncapped.finish_trace()
        _assert_same(flat, uncapped, "hawkeye memo cap")

    def test_prepass_lives_as_long_as_its_trace(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        prepass_mod.clear_prepass_memo()
        for records in (500, 600, 700, 800):
            trace = get_workload(WORKLOAD).trace(records=records)
            pre = prepass_mod.cached_replacement_prepass(trace)
            assert prepass_mod.cached_replacement_prepass(trace) is pre
            # The previous trace is gone, and its pre-pass with it.
            assert prepass_mod.PREPASS_STORE.memo_size() == 1
        gone = weakref.ref(pre)
        del trace, pre
        gc.collect()
        assert gone() is None
        assert prepass_mod.PREPASS_STORE.memo_size() == 0


def _prepass_path(trace, fingerprint):
    return prepass_mod.PREPASS_STORE.path(entry_name(trace.name, fingerprint))


class TestPrepassCache:
    """Fingerprinted .npz + mmap sidecar, shared like frontend plans."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        prepass_mod.clear_prepass_memo()
        yield
        prepass_mod.clear_prepass_memo()

    def test_values_match_policy_hashes(self):
        trace = get_workload(WORKLOAD).trace(records=800)
        pre = prepass_mod.build_replacement_prepass(trace)
        ghrp, hawkeye = GHRPPolicy(), HawkeyePolicy()
        set_mask = (1 << pre.set_bits) - 1
        for t in range(0, len(trace), 37):
            block = int(trace.blocks[t])
            assert pre.set_index_list[t] == block & set_mask
            assert pre.ghrp_sig_list[t] == ghrp._signature(block)
            assert pre.hawkeye_sig_list[t] == hawkeye._signature(block)

    def test_disk_roundtrip_and_memo(self):
        trace = get_workload(WORKLOAD).trace(records=700)
        first = prepass_mod.cached_replacement_prepass(trace)
        assert prepass_mod.cached_replacement_prepass(trace) is first
        prepass_mod.clear_prepass_memo()
        again = prepass_mod.cached_replacement_prepass(trace)
        assert again is not first
        assert again.fingerprint == first.fingerprint
        np.testing.assert_array_equal(again.set_index, first.set_index)
        np.testing.assert_array_equal(again.ghrp_sig, first.ghrp_sig)
        np.testing.assert_array_equal(again.hawkeye_sig, first.hawkeye_sig)

    def test_corrupt_npz_discarded_and_rebuilt(self):
        trace = get_workload(WORKLOAD).trace(records=700)
        built = prepass_mod.cached_replacement_prepass(trace)
        path = _prepass_path(trace, built.fingerprint)
        assert path.exists()
        shutil.rmtree(sidecar_path(path))  # exercise .npz path
        path.write_bytes(b"not an npz")
        prepass_mod.clear_prepass_memo()
        rebuilt = prepass_mod.cached_replacement_prepass(trace)
        np.testing.assert_array_equal(rebuilt.ghrp_sig, built.ghrp_sig)

    def test_corrupt_mmap_sidecar_discarded(self):
        trace = get_workload(WORKLOAD).trace(records=700)
        built = prepass_mod.cached_replacement_prepass(trace)
        sidecar = sidecar_path(_prepass_path(trace, built.fingerprint))
        if sidecar.exists():  # mmap may be disabled in this environment
            (sidecar / "meta.json").write_text("{broken")
            prepass_mod.clear_prepass_memo()
            rebuilt = prepass_mod.cached_replacement_prepass(trace)
            np.testing.assert_array_equal(rebuilt.ghrp_sig, built.ghrp_sig)

    def test_geometry_mismatch_skips_binding(self):
        """A non-default cache keeps the memo-hash path (no bad arrays)."""
        trace = get_workload(WORKLOAD).trace(records=700)
        small = CacheConfig(2 * 64 * 4, 4, name="L1i")  # 2 sets
        twin = FlatGHRPScheme(small)
        twin.prepare_trace(trace)
        assert twin._sig_of_t is None
        assert twin._set_of_t is None
        harmony = FlatHawkeyeScheme(small)
        harmony.prepare_trace(trace)
        assert harmony._sig_of_t is None
