"""The flat replacement twins are bit-identical to their references.

``FlatGHRPScheme`` and ``FlatHawkeyeScheme`` (the registry's production
``ghrp``/``harmony`` schemes) re-implement ``PlainCacheScheme`` around
``GHRPPolicy``/``HawkeyePolicy`` as fused closures with merged line
payloads, packed occupancy vectors and deferred counters.  This suite
pins them to the readable references four ways:

* **op-by-op** — randomized lookup/fill/prefetch/contains schedules on
  a tiny geometry, verdict-for-verdict, with mid-run state comparison,
  cross-loading each twin's checkpoint into the other (both
  directions, into pre-polluted instances) and reset replay;
* **deferred state** — the stats counters and GHRP's GHR accumulate in
  closure cells mid-run and must flush exactly at ``finish_trace`` and
  ``save_state``;
* **whole-engine** — chunked (checkpoint/resume) runs equal one
  undisturbed pass, chunks alternating between the flat and readable
  implementations, and the 20k benchmark grid's scalars are identical
  between the registry's flat build and its readable one
  (:func:`reference.readable_registry`);
* **packed sampler mechanics** — the 8-bit-lane occupancy vector
  (pack/unpack round-trip, lane tables, the one-add "any quantum
  full?" test) against the reference ``_OPTgen``, plus the bounded
  hash memos and the pre-pass cache (corrupt/stale/geometry paths).
"""

from __future__ import annotations

import pickle
import random
import shutil

import numpy as np
import pytest

from repro.common.artifacts import entry_name, sidecar_path
from repro.harness.experiment import run_experiment
from repro.harness.schemes import PlainCacheScheme, SchemeContext, make_scheme
from repro.mem import prepass as prepass_mod
from repro.mem.cache import CacheConfig
from repro.mem.policies.flat_ghrp import FlatGHRPScheme
from repro.mem.policies.flat_hawkeye import (
    FlatHawkeyeScheme,
    _lane_tables,
    _pack_occ,
    _unpack_occ,
)
from repro.mem.policies.ghrp import GHRPPolicy
from repro.mem.policies.hawkeye import HawkeyePolicy, _OPTgen
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload
from reference import readable_ghrp, readable_hawkeye, readable_registry

#: Tiny geometry (8 sets x 4 ways) so sets fill, evict and prune hard.
CONFIG = CacheConfig(4 * 64 * 8, 4, name="L1i")

KINDS = ("ghrp", "harmony")

STATS_FIELDS = (
    "demand_accesses",
    "demand_hits",
    "demand_fills",
    "prefetch_fills",
    "evictions",
)


def _make_pair(kind):
    """(flat twin, readable reference) with identical construction."""
    if kind == "ghrp":
        return FlatGHRPScheme(CONFIG), readable_ghrp(CONFIG)
    return FlatHawkeyeScheme(CONFIG), readable_hawkeye(CONFIG)


def _schedule(seed, length=9000, blocks=160):
    """Seeded op soup with re-reference locality (hits and misses)."""
    rng = random.Random(seed)
    ops = []
    last = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            block = last if rng.random() < 0.6 else rng.randrange(blocks)
            ops.append(("lookup", block))
            last = block
        elif roll < 0.78:
            ops.append(("fill", rng.randrange(blocks)))
        elif roll < 0.92:
            ops.append(("prefetch_fill", rng.randrange(blocks)))
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


def _norm(x):
    """Order-insensitive normal form for saved-state comparison.

    Dict *insertion order* is recency metadata inside the cache's set
    dicts but incidental everywhere else (the twins build their side
    dicts in a different order than the references); comparing via
    sorted items ignores it while still requiring identical contents.
    The per-set line dicts are compared separately, order included,
    by ``_assert_same_sets``.
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


def _assert_same_state(a, b, label):
    assert _norm(a) == _norm(b), f"{label}: saved state diverged"


def _assert_same_sets(a, b, label):
    """Set dicts must match *including* recency (insertion) order."""
    sets_a = [list(lines.items()) for lines in a["icache"]["sets"]]
    sets_b = [list(lines.items()) for lines in b["icache"]["sets"]]
    assert sets_a == sets_b, f"{label}: set contents/recency diverged"


class TestLockstep:
    """Op-by-op equivalence, checkpoint interchange, reset replay."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_and_checkpoint_interchange(self, kind, seed):
        ops = _schedule(seed)
        flat, ref = _make_pair(kind)
        cut = random.Random(seed + 50).randrange(3000, 7000)

        assert _drive(flat, ops, 0, cut) == _drive(ref, ops, 0, cut)

        # Mid-run snapshots agree (through a pickle boundary, the way
        # sweep checkpoints travel) and keep the reference shape.
        state_flat = pickle.loads(pickle.dumps(flat.save_state()))
        state_ref = pickle.loads(pickle.dumps(ref.save_state()))
        _assert_same_state(state_flat, state_ref, f"{kind} mid-run")
        _assert_same_sets(state_flat, state_ref, f"{kind} mid-run")
        for lines in state_flat["icache"]["sets"]:
            assert all(v is None for v in lines.values()), (
                "flat snapshot leaked line payloads"
            )

        # Cross-load: the readable snapshot into a dirty flat twin and
        # vice versa; all four caches then replay the tail identically.
        flat2, ref2 = _make_pair(kind)
        _drive(flat2, _schedule(seed + 7), 0, 400)
        _drive(ref2, _schedule(seed + 9), 0, 400)
        flat2.load_state(state_ref)
        ref2.load_state(state_flat)

        tails = [_drive(s, ops, cut, len(ops)) for s in (flat, ref, flat2, ref2)]
        assert tails[0] == tails[1] == tails[2] == tails[3]
        finals = [s.save_state() for s in (flat, ref, flat2, ref2)]
        for i in (1, 2, 3):
            _assert_same_state(finals[0], finals[i], f"{kind} final {i}")
            _assert_same_sets(finals[0], finals[i], f"{kind} final {i}")

        # Reset replays like a fresh instance on both sides.
        flat.reset()
        ref.reset()
        assert _drive(flat, ops, 0, 2000) == _drive(ref, ops, 0, 2000)
        _assert_same_state(
            flat.save_state(), ref.save_state(), f"{kind} post-reset"
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_lockstep_without_prepass(self, kind):
        """The memo-hash fallback path is the same machine."""
        ops = _schedule(3)
        flat, ref = _make_pair(kind)  # prepare_trace never called
        assert flat._sig_of_t is None
        assert _drive(flat, ops, 0, len(ops)) == _drive(ref, ops, 0, len(ops))


class TestDeferredCounters:
    """Stats (and GHRP's GHR) flush exactly at the state boundaries."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_finish_trace_flushes_stats(self, kind):
        ops = _schedule(4, length=1500)
        flat, ref = _make_pair(kind)
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
        assert flat.policy.ghr == ref_policy.ghr

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_state_discards_deferred_deltas(self, kind):
        """Counters deferred before a load must never leak after it."""
        ops = _schedule(6, length=1200)
        flat, ref = _make_pair(kind)
        state = ref.save_state()
        _drive(flat, ops, 0, 600)  # deferred deltas now pending
        flat.load_state(pickle.loads(pickle.dumps(state)))
        flat.finish_trace()
        for field in STATS_FIELDS:
            assert getattr(flat.icache.stats, field) == 0, field


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
    """Checkpoint/resume through the engine, flat and readable mixed.

    Resuming rebinds the twins' closures over freshly loaded
    containers (the engine hoists the scheme methods only after the
    resume load); alternating implementations between chunks proves
    the snapshots are interchangeable mid-run, not just at rest.
    """

    @pytest.mark.parametrize("kind", KINDS)
    def test_chunked_alternating_twins_equals_single_pass(
        self, kind, trace, context
    ):
        from repro.frontend.plan import cached_plan
        from repro.uarch.timing import simulate

        plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        single = simulate(
            trace,
            make_scheme(kind, context),
            machine=DEFAULT_MACHINE,
            plan=plan,
        )

        def readable():
            build = readable_ghrp if kind == "ghrp" else readable_hawkeye
            return build(context.l1i_config)

        def flat():
            if kind == "ghrp":
                return FlatGHRPScheme(context.l1i_config)
            return FlatHawkeyeScheme(context.l1i_config)

        state = None
        chunk = 0
        while True:
            captured = []

            def stop(s):
                captured.append(s)
                return True

            scheme = flat() if chunk % 2 == 0 else readable()
            run = simulate(
                trace,
                scheme,
                machine=DEFAULT_MACHINE,
                plan=plan,
                resume=state,
                checkpoint_every=1_300,
                on_checkpoint=stop,
            )
            if run is not None:
                assert chunk > 1, "checkpoint cadence never fired"
                break
            chunk += 1
            state = pickle.loads(pickle.dumps(captured[-1]))
        assert _scalars(run) == _scalars(single)

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
        flat_cls = FlatGHRPScheme if kind == "ghrp" else FlatHawkeyeScheme
        assert isinstance(make_scheme(kind, context), flat_cls)

    @pytest.mark.parametrize("kind", KINDS)
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
            assert _unpack_occ(_pack_occ(lanes), window) == lanes

    def test_lane_tables_shapes(self):
        window = 16
        ones, clears = _lane_tables(window)
        for length in range(window + 1):
            assert ones[length] == sum(
                1 << (lane << 3) for lane in range(length)
            )
        for lane in range(window):
            packed = _pack_occ([0x7F] * window)
            cleared = packed & clears[lane]
            lanes = _unpack_occ(cleared, window)
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
            packed = _pack_occ(lanes)
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
            assert _unpack_occ(occ, window) == gen.occ
            assert time == gen.time

    def test_ways_bounds_enforced(self):
        big = CacheConfig(4 * 64 * 128, 128, name="L1i")
        with pytest.raises(ValueError, match="packed occupancy"):
            FlatHawkeyeScheme(big, HawkeyePolicy(ways=128))


class TestBoundedMemos:
    """The hash memos stay bounded and never change behaviour."""

    def test_ghrp_memos_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(GHRPPolicy, "_MEMO_CAP", 16)
        ops = _schedule(11, length=4000, blocks=600)
        flat, _ = _make_pair("ghrp")
        capped = _drive(flat, ops, 0, len(ops))
        assert len(flat.policy._sig_memo) <= 16
        assert len(flat.policy._indices_memo) <= 16
        monkeypatch.setattr(GHRPPolicy, "_MEMO_CAP", 1 << 20)
        uncapped, _ = _make_pair("ghrp")
        assert capped == _drive(uncapped, ops, 0, len(ops))
        flat.finish_trace()
        uncapped.finish_trace()
        _assert_same_state(
            flat.save_state(), uncapped.save_state(), "ghrp memo cap"
        )

    def test_hawkeye_memo_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(HawkeyePolicy, "_MEMO_CAP", 16)
        ops = _schedule(12, length=4000, blocks=600)
        flat, _ = _make_pair("harmony")
        capped = _drive(flat, ops, 0, len(ops))
        assert len(flat.policy._sig_memo) <= 16
        monkeypatch.setattr(HawkeyePolicy, "_MEMO_CAP", 1 << 20)
        uncapped, _ = _make_pair("harmony")
        assert capped == _drive(uncapped, ops, 0, len(ops))
        flat.finish_trace()
        uncapped.finish_trace()
        _assert_same_state(
            flat.save_state(), uncapped.save_state(), "hawkeye memo cap"
        )

    def test_prepass_memo_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        monkeypatch.setattr(prepass_mod.PREPASS_STORE, "memo_cap", 2)
        prepass_mod.clear_prepass_memo()
        for records in (500, 600, 700, 800):
            trace = get_workload(WORKLOAD).trace(records=records)
            prepass_mod.cached_replacement_prepass(trace)
            assert prepass_mod.PREPASS_STORE.memo_size() <= 2
        prepass_mod.clear_prepass_memo()


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
        harmony = FlatHawkeyeScheme(small, HawkeyePolicy(ways=small.ways))
        harmony.prepare_trace(trace)
        assert harmony._sig_of_t is None
