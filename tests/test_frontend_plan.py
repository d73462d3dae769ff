"""Frontend-plan equivalence and cache tests.

The plan layer promises one thing above all: a plan-driven
``simulate`` is *bit-identical* to the stack-driven reference engine
(``reference/engine.py``: a live branch stack and prefetcher object per
record) — same scalars, same verdicts, same candidate stream — for
every scheme, every branch kind and every workload profile, and for
the entangling prefetcher running live on the ``none`` plan.  These
tests pin that promise (property-style, over randomized traces), pin
the vectorized builder against the naive per-record reference replay,
and pin the disk-cache failure paths (corrupt and stale ``.npz``
entries), the plan analogue of ``tests/test_runner_cache.py``.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.common.artifacts import sidecar_path
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import (
    PLAN_FORMAT,
    FrontendPlan,
    build_plan,
    cached_plan,
    clear_plan_memo,
    frontend_fingerprint,
)
from repro.harness.experiment import run_experiment
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import simulate
from repro.workloads.profiles import ALL_WORKLOADS, get_workload
from repro.workloads.trace import BranchKind, Trace, validate_trace
import reference.engine as reference_engine
from reference.plan import build_plan_reference

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

PLAN_ARRAYS = (
    "mispredict",
    "cum_mispredict",
    "cand_lo",
    "cand_hi",
)


def _scalars(result):
    return {k: getattr(result, k) for k in SCALARS}


def random_trace(seed: int, n: int = 3000, nonseq_prob: float = 0.25) -> Trace:
    """A randomized trace exercising every BranchKind.

    Branch sites are drawn from a small pool so the BTB sees aliasing
    and retraining; a few sites are reused for both calls and indirect
    jumps, the hardest case for verdict memoisation.
    """
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
        name=f"rand{seed}-{n}-{nonseq_prob}",
        blocks=blocks,
        instrs=instrs,
        branch_kind=kinds,
        branch_site=sites,
        seed=seed,
    )
    assert validate_trace(trace) == []
    return trace


def live_run(trace, scheme_name, prefetcher, machine=DEFAULT_MACHINE):
    """The reference engine: a fresh stack and prefetcher object."""
    scheme = make_scheme(scheme_name, SchemeContext(trace=trace, machine=machine))
    return reference_engine.live_run(trace, scheme, prefetcher, machine)


def planned_run(trace, scheme_name, prefetcher, machine=DEFAULT_MACHINE):
    """The production engine; entangling runs live on the ``none`` plan."""
    live = None
    if prefetcher == "entangling":
        live, prefetcher = EntanglingPrefetcher(trace), "none"
    plan = build_plan(trace, machine, prefetcher)
    scheme = make_scheme(scheme_name, SchemeContext(trace=trace, machine=machine))
    run = simulate(trace, scheme, machine=machine, plan=plan, prefetcher=live)
    return run, plan


class TestBuilderEquivalence:
    """The vectorized builder reproduces the naive replay exactly."""

    @pytest.mark.parametrize("prefetcher", ["fdp", "none"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_traces(self, seed, prefetcher):
        trace = random_trace(seed)
        ref = build_plan_reference(trace, DEFAULT_MACHINE, prefetcher)
        fast = build_plan(trace, DEFAULT_MACHINE, prefetcher)
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(ref, name), getattr(fast, name)), name

    @pytest.mark.parametrize(
        "nonseq_prob", [0.0, 0.05, 0.6, 1.0], ids=lambda p: f"nonseq{p}"
    )
    def test_branch_density_extremes(self, nonseq_prob):
        trace = random_trace(7, n=1500, nonseq_prob=nonseq_prob)
        ref = build_plan_reference(trace, DEFAULT_MACHINE, "fdp")
        fast = build_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(ref, name), getattr(fast, name)), name

    @pytest.mark.parametrize("n", [1, 2, 39, 40, 41, 200])
    def test_tiny_traces_around_runahead_depth(self, n):
        trace = random_trace(11, n=n)
        ref = build_plan_reference(trace, DEFAULT_MACHINE, "fdp")
        fast = build_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(ref, name), getattr(fast, name)), name

    @pytest.mark.parametrize("depth", [1, 2, 7, 64, 5000])
    def test_runahead_depth_variants(self, depth):
        """Small and huge FTQ depths stress the bulk-fill boundaries."""
        machine = MachineParams(ftq_depth_records=depth)
        trace = random_trace(13, n=2000)
        ref = build_plan_reference(trace, machine, "fdp")
        fast = build_plan(trace, machine, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(ref, name), getattr(fast, name)), name
        live = live_run(trace, "lru", "fdp", machine)
        planned, _ = planned_run(trace, "lru", "fdp", machine)
        assert _scalars(planned) == _scalars(live)

    def test_single_kind_traces(self):
        """Every branch kind, in isolation, round-trips the builders."""
        for kind in BranchKind.ALL:
            n = 400
            rng = np.random.RandomState(kind)
            kinds = np.full(n, kind, dtype=np.uint8)
            kinds[0] = BranchKind.SEQUENTIAL  # record 0 has no transition
            sites = np.where(
                kinds == BranchKind.SEQUENTIAL,
                np.int64(-1),
                rng.randint(0, 16, size=n).astype(np.int64),
            )
            trace = Trace(
                name=f"kind{kind}",
                blocks=rng.randint(0, 64, size=n).astype(np.int64),
                instrs=np.full(n, 6, dtype=np.uint8),
                branch_kind=kinds,
                branch_site=sites,
            )
            ref = build_plan_reference(trace, DEFAULT_MACHINE, "fdp")
            fast = build_plan(trace, DEFAULT_MACHINE, "fdp")
            for name in PLAN_ARRAYS:
                assert np.array_equal(
                    getattr(ref, name), getattr(fast, name)
                ), (kind, name)


class TestPlannedSimulateEquivalence:
    """Plan-driven simulate == live simulate, record for record."""

    @pytest.mark.parametrize("prefetcher", ["fdp", "none", "entangling"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_traces(self, seed, prefetcher):
        trace = random_trace(seed)
        live = live_run(trace, "acic", prefetcher)
        planned, _ = planned_run(trace, "acic", prefetcher)
        assert _scalars(planned) == _scalars(live)
        assert planned.prefetcher_name == prefetcher

    @pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
    def test_all_workload_profiles(self, workload):
        trace = get_workload(workload).trace(records=3000)
        live = live_run(trace, "lru", "fdp")
        planned, _ = planned_run(trace, "lru", "fdp")
        assert _scalars(planned) == _scalars(live)

    def test_all_registered_schemes_on_20k_grid(self):
        """Acceptance gate: every registered scheme, one 20k grid.

        One plan (built once, as sweeps share it) against a fresh live
        stack/FDP per scheme; every RunResult scalar must match bit for
        bit.
        """
        trace = get_workload("media-streaming").trace(records=20_000)
        plan = build_plan(trace, DEFAULT_MACHINE, "fdp")
        for scheme_name in sorted(available_schemes()):
            live = live_run(trace, scheme_name, "fdp")
            planned = simulate(
                trace,
                make_scheme(scheme_name, SchemeContext(trace=trace)),
                machine=DEFAULT_MACHINE,
                plan=plan,
            )
            assert _scalars(planned) == _scalars(live), scheme_name

    def test_run_experiment_plan_matches_live(self):
        planned = run_experiment("x264", "acic", records=4000)
        trace = get_workload("x264").trace(records=4000)
        live = live_run(trace, "acic", "fdp")
        assert _scalars(planned.run) == _scalars(live)

    def test_entangling_runs_live_on_the_none_plan(self, monkeypatch):
        """Entangling has no plan of its own: its table trains on
        scheme-dependent miss timing, so it runs live on the ``none``
        plan, which supplies only the branch flushes."""
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        with pytest.raises(ValueError):
            build_plan(random_trace(0, n=200), DEFAULT_MACHINE, "entangling")
        result = run_experiment("x264", "lru", prefetcher="entangling", records=2000)
        assert result.run.prefetcher_name == "entangling"
        trace = get_workload("x264").trace(records=2000)
        live = live_run(trace, "lru", "entangling")
        assert _scalars(result.run) == _scalars(live)

    @pytest.mark.parametrize("workload", ["media-streaming", "tpcc"])
    def test_entangling_matches_reference_on_profiles(self, workload, monkeypatch):
        """Schemes with (lru/opt/acic) and without (srrip/ghrp) the
        repeat-hit hook: batched repeats skip ``observe_fetch``, which
        the reference calls on every record."""
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = get_workload(workload).trace(records=4000)
        for scheme_name in ("lru", "opt", "acic", "srrip", "ghrp"):
            live = live_run(trace, scheme_name, "entangling")
            planned, _ = planned_run(trace, scheme_name, "entangling")
            assert _scalars(planned) == _scalars(live), scheme_name

    def test_warmup_split_honoured(self):
        trace = random_trace(5, n=1000)
        machine = MachineParams(warmup_fraction=0.5)
        live = live_run(trace, "lru", "fdp", machine)
        planned, plan = planned_run(trace, "lru", "fdp", machine)
        assert plan.warmup_end == 500
        assert _scalars(planned) == _scalars(live)
        assert (
            planned.mispredicted_transitions == plan.mispredicted_after_warmup()
        )


class TestSimulateArgumentValidation:
    def test_plan_and_live_frontend_are_exclusive(self):
        """A live prefetcher runs only on the ``none`` plan: an fdp plan
        brings its own candidate stream."""
        trace = random_trace(0, n=200)
        plan = build_plan(trace, DEFAULT_MACHINE, "fdp")
        scheme = make_scheme("lru", SchemeContext(trace=trace))
        with pytest.raises(ValueError, match="'none' plan"):
            simulate(
                trace, scheme, machine=DEFAULT_MACHINE, plan=plan,
                prefetcher=EntanglingPrefetcher(trace),
            )

    def test_missing_frontend_raises(self):
        trace = random_trace(0, n=200)
        scheme = make_scheme("lru", SchemeContext(trace=trace))
        with pytest.raises(TypeError, match="frontend plan"):
            simulate(trace, scheme, machine=DEFAULT_MACHINE)

    def test_wrong_length_plan_rejected(self):
        trace = random_trace(0, n=200)
        plan = build_plan(trace.slice(0, 100), DEFAULT_MACHINE, "fdp")
        scheme = make_scheme("lru", SchemeContext(trace=trace))
        with pytest.raises(ValueError, match="different trace"):
            simulate(trace, scheme, machine=DEFAULT_MACHINE, plan=plan)

    def test_wrong_warmup_plan_rejected(self):
        trace = random_trace(0, n=200)
        plan = build_plan(trace, MachineParams(warmup_fraction=0.5), "fdp")
        scheme = make_scheme("lru", SchemeContext(trace=trace))
        with pytest.raises(ValueError, match="warmup"):
            simulate(trace, scheme, machine=DEFAULT_MACHINE, plan=plan)

    def test_unplannable_prefetcher_rejected_by_builders(self):
        trace = random_trace(0, n=200)
        with pytest.raises(ValueError):
            build_plan(trace, DEFAULT_MACHINE, "entangling")
        with pytest.raises(ValueError):
            frontend_fingerprint(trace, DEFAULT_MACHINE, "entangling")


@pytest.fixture()
def plan_cache(tmp_path, monkeypatch):
    """Isolated plan cache on disk, empty in-process memo.

    Tests that reload drop the sidecars first (:func:`_drop_sidecars`)
    so they exercise the npz layer in isolation;
    ``TestPlanMmapSidecar`` covers the sidecar.
    """
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_plan_memo()
    yield tmp_path
    clear_plan_memo()


def _drop_sidecars(cache):
    for sidecar in cache.glob("*.mmap"):
        shutil.rmtree(sidecar)


@pytest.fixture()
def mmap_plan_cache(tmp_path, monkeypatch):
    """Isolated plan cache, sidecars left in place."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_plan_memo()
    yield tmp_path
    clear_plan_memo()


class TestPlanCache:
    """Disk round-trip and invalidation, mirroring the runner cache."""

    def test_store_then_load_yields_equal_arrays(self, plan_cache):
        trace = random_trace(1, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        (entry,) = plan_cache.glob("*.npz")

        clear_plan_memo()  # force the disk layer
        _drop_sidecars(plan_cache)
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(fresh, name))
        assert loaded.fingerprint == fresh.fingerprint
        assert entry.exists()

    def test_memo_hit_skips_disk(self, plan_cache):
        trace = random_trace(1, n=800)
        first = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        (entry,) = plan_cache.glob("*.npz")
        entry.unlink()  # memo must still serve the same object
        assert cached_plan(trace, DEFAULT_MACHINE, "fdp") is first

    def test_corrupt_entry_is_unlinked_and_rebuilt(self, plan_cache):
        trace = random_trace(2, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        (entry,) = plan_cache.glob("*.npz")
        entry.write_text("{not an npz")

        clear_plan_memo()
        _drop_sidecars(plan_cache)
        rebuilt = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(rebuilt, name), getattr(fresh, name))
        # The corrupt file was replaced by a valid, loadable entry.
        (entry,) = plan_cache.glob("*.npz")
        assert FrontendPlan.load(entry).fingerprint == fresh.fingerprint

    def test_stale_fingerprint_is_rebuilt(self, plan_cache):
        """An entry whose embedded fingerprint mismatches is stale.

        This is what a PLAN_FORMAT bump or a regenerated trace looks
        like on disk: the file parses but describes different frontend
        work.  It must be discarded, not trusted.
        """
        trace = random_trace(3, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        (entry,) = plan_cache.glob("*.npz")

        stale = FrontendPlan.load(entry)
        stale.fingerprint = "0" * 12
        stale.mispredict = np.ones_like(stale.mispredict)  # obviously wrong
        stale.save(entry)

        clear_plan_memo()
        _drop_sidecars(plan_cache)
        rebuilt = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        assert rebuilt.fingerprint == fresh.fingerprint
        assert np.array_equal(rebuilt.mispredict, fresh.mispredict)

    def test_no_disk_cache_env_bypasses(self, plan_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = random_trace(4, n=800)
        cached_plan(trace, DEFAULT_MACHINE, "fdp")
        assert not list(plan_cache.glob("*.npz"))

    def test_fingerprint_is_frontend_only(self, plan_cache):
        """Backend/cache knobs must not fork the plan cache key."""
        trace = random_trace(5, n=800)
        base = frontend_fingerprint(trace, DEFAULT_MACHINE, "fdp")
        backend_tweak = MachineParams(backend_ipc=2.0, mshr_entries=4)
        assert frontend_fingerprint(trace, backend_tweak, "fdp") == base
        frontend_tweak = MachineParams(ftq_depth_records=8)
        assert frontend_fingerprint(trace, frontend_tweak, "fdp") != base
        assert frontend_fingerprint(trace, DEFAULT_MACHINE, "none") != base

    def test_content_digest_distinguishes_same_named_traces(self, plan_cache):
        a = random_trace(6, n=800)
        b = random_trace(7, n=800)
        b.name = a.name
        b.seed = a.seed
        assert frontend_fingerprint(
            a, DEFAULT_MACHINE, "fdp"
        ) != frontend_fingerprint(b, DEFAULT_MACHINE, "fdp")

    def test_format_version_embedded(self, plan_cache):
        trace = random_trace(8, n=800)
        cached_plan(trace, DEFAULT_MACHINE, "fdp")
        (entry,) = plan_cache.glob("*.npz")
        with np.load(entry) as data:
            assert int(data["format"]) == PLAN_FORMAT


class TestPlanMmapSidecar:
    """The uncompressed sidecar sweep workers memory-map.

    Mirrors the npz-layer staleness/corruption tests: a sidecar is only
    trusted behind the same fingerprint check, and any unreadable or
    stale sidecar is discarded and rebuilt from the npz without ever
    serving wrong arrays.
    """

    def _entry(self, cache):
        (entry,) = cache.glob("*.npz")
        return entry

    def test_save_writes_sidecar_and_load_maps_arrays(self, mmap_plan_cache):
        trace = random_trace(1, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        assert sidecar.is_dir()
        assert (sidecar / "meta.json").exists()

        clear_plan_memo()  # force the disk layer
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            got = getattr(loaded, name)
            assert np.array_equal(got, getattr(fresh, name)), name
        # The bulk arrays really are memory-mapped, not copies.
        assert isinstance(loaded.mispredict, np.memmap)
        assert loaded.fingerprint == fresh.fingerprint
        # And the mapped plan drives simulate() identically.
        live = live_run(trace, "lru", "fdp")
        scheme = make_scheme("lru", SchemeContext(trace=trace))
        mapped = simulate(trace, scheme, machine=DEFAULT_MACHINE, plan=loaded)
        assert _scalars(mapped) == _scalars(live)

    def test_corrupt_sidecar_falls_back_to_npz(self, mmap_plan_cache):
        trace = random_trace(2, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        (sidecar / "cand_lo.npy").write_bytes(b"\x93NUMPY garbage")

        clear_plan_memo()
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(fresh, name))
        # The corrupt sidecar was discarded and repaired from the npz.
        assert FrontendPlan.load_mmap(sidecar).fingerprint == fresh.fingerprint

    def test_truncated_array_is_rejected(self, mmap_plan_cache):
        trace = random_trace(3, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        mis = sidecar / "mispredict.npy"
        mis.write_bytes(mis.read_bytes()[:-200])

        clear_plan_memo()
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        assert np.array_equal(loaded.mispredict, fresh.mispredict)

    def test_stale_sidecar_fingerprint_is_discarded(self, mmap_plan_cache):
        trace = random_trace(4, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        meta_path = sidecar / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"] = "0" * 12
        meta_path.write_text(json.dumps(meta))
        # Poison an array too: serving it would be observably wrong.
        np.save(sidecar / "mispredict.npy", np.ones(800, dtype=np.uint8))

        clear_plan_memo()
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        assert loaded.fingerprint == fresh.fingerprint
        assert np.array_equal(loaded.mispredict, fresh.mispredict)

    def test_missing_sidecar_is_repaired_from_npz(self, mmap_plan_cache):
        import shutil

        trace = random_trace(5, n=800)
        cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        shutil.rmtree(sidecar)

        clear_plan_memo()
        cached_plan(trace, DEFAULT_MACHINE, "fdp")  # loads npz, repairs
        assert sidecar.is_dir()
        clear_plan_memo()
        assert isinstance(
            cached_plan(trace, DEFAULT_MACHINE, "fdp").mispredict, np.memmap
        )

    def test_zero_byte_meta_is_discarded_and_rebuilt(self, mmap_plan_cache):
        """A crash between create and write leaves meta.json empty."""
        trace = random_trace(6, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        (sidecar / "meta.json").write_bytes(b"")

        clear_plan_memo()
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(fresh, name))
        # Repaired: the sidecar serves mmaps again with real metadata.
        assert (sidecar / "meta.json").stat().st_size > 0
        clear_plan_memo()
        assert isinstance(
            cached_plan(trace, DEFAULT_MACHINE, "fdp").mispredict, np.memmap
        )

    def test_missing_array_file_is_discarded_and_rebuilt(self, mmap_plan_cache):
        trace = random_trace(7, n=800)
        fresh = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        sidecar = sidecar_path(self._entry(mmap_plan_cache))
        (sidecar / "mispredict.npy").unlink()

        clear_plan_memo()
        loaded = cached_plan(trace, DEFAULT_MACHINE, "fdp")
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(fresh, name))
        assert (sidecar / "mispredict.npy").exists(), "sidecar was repaired"
