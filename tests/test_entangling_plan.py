"""Entangling-plan equivalence, approximation-bound and cache tests.

The two-pass entangling plan promises:

* **recording is pure observation** — a live run with the recorder
  riding along is bit-identical to an unrecorded live run;
* **exact mode is bit-identical** — replaying a plan for the scheme it
  was recorded under reproduces the live run scalar for scalar, for
  every registered scheme (the 20k grid below is the acceptance gate);
* **approx mode is boundedly wrong** — replaying a reference-scheme
  stream under a different scheme drifts by small, asserted margins
  and never silently shares cache keys with exact results;
* the disk cache (npz + mmap sidecar) discards corrupt or stale
  entries instead of serving them, like ``tests/test_frontend_plan.py``
  pins for FrontendPlans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.entangling_plan import (
    ENTANGLING_PLAN_FORMAT,
    ENTANGLING_REFERENCE_SCHEME,
    EntanglingPlan,
    RecordingEntanglingPrefetcher,
    build_entangling_plan,
    cached_entangling_plan,
    clear_entangling_plan_memo,
    entangling_fingerprint,
    entangling_plan_mode,
)
from repro.frontend.plan import clear_plan_memo, mmap_sidecar_path
from repro.frontend.stack import BranchStack
from repro.harness.experiment import run_experiment
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import simulate
from repro.workloads.profiles import ALL_WORKLOADS, get_workload
from repro.workloads.trace import BranchKind, Trace, validate_trace

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


def _scalars(result):
    return {k: getattr(result, k) for k in SCALARS}


def random_trace(seed: int, n: int = 3000, nonseq_prob: float = 0.25) -> Trace:
    """A randomized trace exercising every BranchKind (small block pool
    so the entangling table sees reuse, eviction and retraining)."""
    rng = np.random.RandomState(seed)
    kinds_pool = np.array(
        [
            BranchKind.SEQUENTIAL,
            BranchKind.COND_TAKEN,
            BranchKind.COND_NOT_TAKEN,
            BranchKind.CALL,
            BranchKind.RETURN,
            BranchKind.INDIRECT,
        ],
        dtype=np.uint8,
    )
    seq_prob = 1.0 - nonseq_prob
    probs = [seq_prob] + [nonseq_prob / 5.0] * 5
    kinds = rng.choice(kinds_pool, size=n, p=probs)
    blocks = rng.randint(0, 400, size=n).astype(np.int64)
    sites = np.where(
        kinds == BranchKind.SEQUENTIAL,
        np.int64(-1),
        rng.randint(0, 60, size=n).astype(np.int64),
    )
    instrs = rng.randint(1, 17, size=n).astype(np.uint8)
    trace = Trace(
        name=f"entrand{seed}-{n}-{nonseq_prob}",
        blocks=blocks,
        instrs=instrs,
        branch_kind=kinds,
        branch_site=sites,
        seed=seed,
    )
    assert validate_trace(trace) == []
    return trace


def live_run(trace, scheme_name, machine=DEFAULT_MACHINE):
    """Plain live entangling run (no recorder)."""
    stack = BranchStack(trace)
    pf = EntanglingPrefetcher(trace)
    scheme = make_scheme(scheme_name, SchemeContext(trace=trace, machine=machine))
    return simulate(trace, scheme, pf, stack, machine), pf


def record_plan(trace, scheme_name, machine=DEFAULT_MACHINE):
    """Pass 1: build the plan under ``scheme_name`` (memoised base only)."""
    scheme = make_scheme(scheme_name, SchemeContext(trace=trace, machine=machine))
    return build_entangling_plan(trace, machine, scheme, scheme_name)


def replay_run(trace, scheme_name, plan, machine=DEFAULT_MACHINE):
    """Pass 2: plan-driven simulate of ``scheme_name``."""
    scheme = make_scheme(scheme_name, SchemeContext(trace=trace, machine=machine))
    return simulate(trace, scheme, machine=machine, plan=plan)


class TestRecorderTransparency:
    """Recording must not perturb the run it observes."""

    @pytest.mark.parametrize("scheme", ["lru", "acic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recorded_run_matches_plain_live(self, seed, scheme):
        trace = random_trace(seed)
        live, _ = live_run(trace, scheme)
        _, recorded = record_plan(trace, scheme)
        assert _scalars(recorded) == _scalars(live)

    def test_stream_invariants(self):
        trace = random_trace(3)
        plan, run = record_plan(trace, "lru")
        n = len(trace)
        assert len(plan) == n
        assert len(plan.cand_lo) == n and len(plan.cand_hi) == n
        # Spans are well-formed, non-overlapping and cover cand_blocks.
        lo, hi = plan.cand_lo, plan.cand_hi
        assert (lo <= hi).all()
        assert (hi[:-1] == lo[1:]).all()  # consecutive spans abut
        if n:
            assert lo[0] == 0 and hi[-1] == len(plan.cand_blocks)
        # Every demand miss was recorded; the post-warmup subset is
        # exactly what the RunResult reports.
        post_warmup = int((plan.miss_rec >= plan.warmup_end).sum())
        assert post_warmup == run.demand_misses
        assert len(plan.miss_rec) == len(plan.miss_cycle)
        assert (np.diff(plan.miss_cycle) >= 0).all()  # cycles never rewind
        # Entangle pairs match the table's own count, and no pair is
        # degenerate (source == destination never entangles).
        recorder_stats = run.scheme  # scheme object from pass 1
        assert len(plan.ent_src) == len(plan.ent_dst)
        assert (plan.ent_src != plan.ent_dst).all()
        assert recorder_stats is not None
        # The reference scalars embedded in the plan match the run.
        assert plan.ref_scalars == _scalars(run)

    def test_recorder_is_a_real_entangling_prefetcher(self):
        trace = random_trace(4, n=500)
        rec = RecordingEntanglingPrefetcher(trace)
        assert isinstance(rec, EntanglingPrefetcher)
        rec.observe_fetch(1, 0)
        rec.on_demand_miss(99, 100)
        assert rec.rec_miss_cycle == [100]
        assert rec.rec_ent_src == [1] and rec.rec_ent_dst == [99]
        out = rec.candidates(0)  # record 0 fetches trace block
        assert rec.rec_cand_lo == [0]
        assert rec.rec_cand_hi == [len(out)]


class TestExactReplayEquivalence:
    """Replaying a plan for its own reference scheme is bit-identical."""

    @pytest.mark.parametrize("scheme", ["lru", "acic", "vvc", "srrip"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_traces(self, seed, scheme):
        trace = random_trace(seed)
        live, _ = live_run(trace, scheme)
        plan, _ = record_plan(trace, scheme)
        replayed = replay_run(trace, scheme, plan)
        assert _scalars(replayed) == _scalars(live)
        assert replayed.prefetcher_name == "entangling"

    @pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
    def test_all_workload_profiles(self, workload):
        trace = get_workload(workload).trace(records=3000)
        live, _ = live_run(trace, "lru")
        plan, _ = record_plan(trace, "lru")
        assert _scalars(replay_run(trace, "lru", plan)) == _scalars(live)

    @pytest.mark.parametrize("n", [1, 2, 50, 600])
    def test_tiny_traces(self, n):
        trace = random_trace(9, n=n)
        live, _ = live_run(trace, "acic")
        plan, _ = record_plan(trace, "acic")
        assert _scalars(replay_run(trace, "acic", plan)) == _scalars(live)

    def test_machine_variants(self):
        machine = MachineParams(
            backend_ipc=2.0, mshr_entries=4, warmup_fraction=0.5
        )
        trace = random_trace(10, n=1500)
        live, _ = live_run(trace, "lru", machine)
        plan, _ = record_plan(trace, "lru", machine)
        assert _scalars(replay_run(trace, "lru", plan, machine)) == _scalars(live)

    def test_all_registered_schemes_on_20k_grid(self):
        """Acceptance gate: every registered scheme, one 20k grid.

        Pass 1 records under each scheme; the replay must match the
        plain live run scalar for scalar, bit for bit.
        """
        trace = get_workload("media-streaming").trace(records=20_000)
        for scheme_name in sorted(available_schemes()):
            live, _ = live_run(trace, scheme_name)
            plan, recorded = record_plan(trace, scheme_name)
            assert _scalars(recorded) == _scalars(live), scheme_name
            replayed = replay_run(trace, scheme_name, plan)
            assert _scalars(replayed) == _scalars(live), scheme_name


class TestApproxMode:
    """Cross-scheme replay: documented approximation, bounded drift."""

    #: Measured on the media-streaming grid the drift is <0.1% for
    #: cycles and ~1% for the miss-path scalars; 5%/10% leaves margin
    #: for other trace shapes while still catching a broken replay
    #: (which would be off by far more or crash outright).
    CYCLES_TOL = 0.05
    MISS_TOL = 0.10

    @pytest.mark.parametrize("scheme", ["acic", "srrip"])
    def test_drift_is_bounded(self, scheme):
        trace = get_workload("media-streaming").trace(records=10_000)
        live, _ = live_run(trace, scheme)
        plan, _ = record_plan(trace, ENTANGLING_REFERENCE_SCHEME)
        approx = replay_run(trace, scheme, plan)
        # Structure-independent scalars are exact by construction.
        assert approx.instructions == live.instructions
        assert approx.accesses == live.accesses
        assert approx.mispredicted_transitions == live.mispredicted_transitions
        # Timing-coupled scalars drift, but stay within the bound.
        assert approx.cycles == pytest.approx(
            live.cycles, rel=self.CYCLES_TOL
        )
        assert approx.demand_misses == pytest.approx(
            live.demand_misses, rel=self.MISS_TOL
        )

    def test_reference_scheme_replay_is_exact_even_under_approx(self):
        trace = random_trace(11)
        live, _ = live_run(trace, ENTANGLING_REFERENCE_SCHEME)
        plan, _ = record_plan(trace, ENTANGLING_REFERENCE_SCHEME)
        replayed = replay_run(trace, ENTANGLING_REFERENCE_SCHEME, plan)
        assert _scalars(replayed) == _scalars(live)


@pytest.fixture()
def isolated_caches(tmp_path, monkeypatch):
    """Isolated plan cache on disk; clean memos; exact mode."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_ENTANGLING_PLAN", raising=False)
    clear_plan_memo()
    clear_entangling_plan_memo()
    yield tmp_path
    clear_plan_memo()
    clear_entangling_plan_memo()


def _cached(trace, scheme="lru", machine=DEFAULT_MACHINE):
    return cached_entangling_plan(
        trace,
        machine,
        scheme,
        lambda: make_scheme(scheme, SchemeContext(trace=trace, machine=machine)),
    )


class TestModeSelection:
    def test_default_is_exact(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENTANGLING_PLAN", raising=False)
        assert entangling_plan_mode() == "exact"

    @pytest.mark.parametrize(
        "raw,mode",
        [("exact", "exact"), ("approx", "approx"), ("off", "off"),
         ("1", "exact"), ("0", "off"), ("", "exact"), ("EXACT", "exact")],
    )
    def test_aliases(self, monkeypatch, raw, mode):
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", raw)
        assert entangling_plan_mode() == mode

    def test_unknown_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", "fuzzy")
        with pytest.raises(ValueError, match="REPRO_ENTANGLING_PLAN"):
            entangling_plan_mode()


class TestRunExperimentIntegration:
    """The harness path: exact replays, approx keys, off reverts."""

    def test_exact_cold_and_warm_match_live(self, isolated_caches):
        live = run_experiment(
            "x264", "acic", prefetcher="entangling", records=3000,
            use_plan=False,
        )
        cold = run_experiment(  # records (pass 1 *is* this run)
            "x264", "acic", prefetcher="entangling", records=3000,
        )
        warm = run_experiment(  # replays the cached stream
            "x264", "acic", prefetcher="entangling", records=3000,
        )
        assert _scalars(cold.run) == _scalars(live.run)
        assert _scalars(warm.run) == _scalars(live.run)
        assert warm.run.prefetcher_name == "entangling"
        assert list(isolated_caches.glob("*.ent.npz"))

    def test_off_mode_never_touches_the_plan_cache(
        self, isolated_caches, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", "off")
        run_experiment(
            "x264", "lru", prefetcher="entangling", records=2000
        )
        assert not list(isolated_caches.glob("*.ent.npz"))

    def test_approx_mode_shares_the_reference_stream(
        self, isolated_caches, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", "approx")
        run_experiment("x264", "acic", prefetcher="entangling", records=3000)
        run_experiment("x264", "srrip", prefetcher="entangling", records=3000)
        # Both schemes replayed the single reference-scheme plan.
        assert len(list(isolated_caches.glob("*.ent.npz"))) == 1

    def test_exact_mode_records_one_plan_per_scheme(self, isolated_caches):
        run_experiment("x264", "acic", prefetcher="entangling", records=3000)
        run_experiment("x264", "srrip", prefetcher="entangling", records=3000)
        assert len(list(isolated_caches.glob("*.ent.npz"))) == 2


class TestRunnerCacheKeys:
    def test_approx_results_key_separately(self, monkeypatch):
        from repro.harness.runner import Runner

        runner = Runner(records=2000, prefetcher="entangling")
        monkeypatch.delenv("REPRO_ENTANGLING_PLAN", raising=False)
        exact_path = runner._disk_path("x264", "acic")
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", "approx")
        approx_path = runner._disk_path("x264", "acic")
        assert exact_path != approx_path
        assert "entangling-approx" in approx_path.name
        # Other prefetchers are unaffected by the mode.
        fdp = Runner(records=2000, prefetcher="fdp")
        assert "approx" not in fdp._disk_path("x264", "acic").name

    def test_in_memory_layer_respects_mode_too(self, monkeypatch):
        """A mode flip mid-process must also miss the memory layer —
        an approx result cached in ``_memory`` can never be served as
        an exact one (regression: the key once omitted the mode)."""
        from repro.harness.runner import Runner

        runner = Runner(
            records=2000, prefetcher="entangling", use_disk_cache=False
        )
        monkeypatch.delenv("REPRO_ENTANGLING_PLAN", raising=False)
        exact_key = runner._key("x264", "acic")
        monkeypatch.setenv("REPRO_ENTANGLING_PLAN", "approx")
        assert runner._key("x264", "acic") != exact_key


class TestPlanCache:
    """Disk round-trip and invalidation, mirroring the FrontendPlan tests."""

    def test_store_then_load_round_trips(self, isolated_caches):
        trace = random_trace(20, n=800)
        plan, run = _cached(trace)
        assert run is not None  # cold build surfaces the reference run
        (entry,) = isolated_caches.glob("*.ent.npz")

        clear_entangling_plan_memo()  # force the disk layer
        loaded, rerun = _cached(trace)
        assert rerun is None  # served from disk: no pass 1
        for name in ("cand_blocks", "cand_lo", "cand_hi", "miss_rec",
                     "miss_cycle", "ent_src", "ent_dst"):
            assert np.array_equal(getattr(loaded, name), getattr(plan, name))
        assert loaded.fingerprint == plan.fingerprint
        assert loaded.ref_scalars == plan.ref_scalars
        assert entry.exists()

    def test_memo_hit_skips_disk(self, isolated_caches):
        trace = random_trace(21, n=800)
        first, _ = _cached(trace)
        (entry,) = isolated_caches.glob("*.ent.npz")
        entry.unlink()
        again, rerun = _cached(trace)
        assert again is first and rerun is None

    def test_sidecar_is_memory_mapped(self, isolated_caches):
        trace = random_trace(22, n=800)
        plan, _ = _cached(trace)
        (entry,) = isolated_caches.glob("*.ent.npz")
        assert mmap_sidecar_path(entry).is_dir()

        clear_entangling_plan_memo()
        loaded, _ = _cached(trace)
        assert isinstance(loaded.cand_lo, np.memmap)
        # And the mapped plan replays identically.
        live, _ = live_run(trace, "lru")
        assert _scalars(replay_run(trace, "lru", loaded)) == _scalars(live)

    def test_corrupt_sidecar_falls_back_to_npz(self, isolated_caches):
        trace = random_trace(23, n=800)
        plan, _ = _cached(trace)
        (entry,) = isolated_caches.glob("*.ent.npz")
        sidecar = mmap_sidecar_path(entry)
        (sidecar / "cand_lo.npy").write_bytes(b"\x93NUMPY garbage")

        clear_entangling_plan_memo()
        loaded, rerun = _cached(trace)
        assert rerun is None  # repaired from the npz, not re-recorded
        assert np.array_equal(loaded.cand_lo, plan.cand_lo)
        assert EntanglingPlan.load_mmap(
            sidecar, loaded.base
        ).fingerprint == plan.fingerprint  # sidecar was rebuilt

    def test_corrupt_npz_is_rebuilt(self, isolated_caches):
        import shutil

        trace = random_trace(24, n=800)
        plan, _ = _cached(trace)
        (entry,) = isolated_caches.glob("*.ent.npz")
        shutil.rmtree(mmap_sidecar_path(entry))
        entry.write_text("{not an npz")

        clear_entangling_plan_memo()
        rebuilt, rerun = _cached(trace)
        assert rerun is not None  # a fresh pass 1 ran
        assert np.array_equal(rebuilt.cand_blocks, plan.cand_blocks)

    def test_stale_sidecar_fingerprint_is_discarded(self, isolated_caches):
        trace = random_trace(25, n=800)
        plan, _ = _cached(trace)
        (entry,) = isolated_caches.glob("*.ent.npz")
        sidecar = mmap_sidecar_path(entry)
        meta_path = sidecar / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "0" * 12
        meta_path.write_text(json.dumps(meta))
        np.save(sidecar / "cand_lo.npy", np.zeros(800, dtype=np.int64))

        clear_entangling_plan_memo()
        loaded, _ = _cached(trace)
        assert loaded.fingerprint == plan.fingerprint
        assert np.array_equal(loaded.cand_lo, plan.cand_lo)

    def test_no_disk_cache_env_bypasses(self, isolated_caches, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = random_trace(26, n=800)
        _cached(trace)
        assert not list(isolated_caches.glob("*.ent.npz"))

    def test_format_bump_invalidates(self, isolated_caches, monkeypatch):
        trace = random_trace(27, n=800)
        plan, _ = _cached(trace)
        import repro.frontend.entangling_plan as mod

        monkeypatch.setattr(mod, "ENTANGLING_PLAN_FORMAT", 999)
        clear_entangling_plan_memo()
        rebuilt, rerun = _cached(trace)
        assert rerun is not None  # old entry rejected, re-recorded
        assert rebuilt.fingerprint != plan.fingerprint


class TestFingerprint:
    def test_scheme_machine_and_trace_participate(self):
        a = random_trace(30, n=400)
        b = random_trace(31, n=400)
        base = entangling_fingerprint(a, DEFAULT_MACHINE, "lru")
        assert entangling_fingerprint(a, DEFAULT_MACHINE, "acic") != base
        assert entangling_fingerprint(b, DEFAULT_MACHINE, "lru") != base
        # Unlike frontend fingerprints, *backend* knobs fork the key:
        # recorded miss timing depends on the whole machine.
        backend_tweak = MachineParams(backend_ipc=2.0)
        assert entangling_fingerprint(a, backend_tweak, "lru") != base
        assert int(ENTANGLING_PLAN_FORMAT) == 1  # bump reminder: see module doc
