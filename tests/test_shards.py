"""Sharded (windowed, ledgered) execution is pinned to single-pass runs.

Three layers:

* the **ledger** — ``ShardLedger`` round-trips boundary states through
  fsync'd JSONL + state files, tolerates torn tails, falls back past
  truncated/stale/foreign entries instead of trusting them, prunes to
  the fallback horizon, and deletes everything on ``finish``;
* the **state layout** — what a boundary state pickles is pinned to
  ``SHARD_FORMAT``, so a layout change cannot reach a ledger written
  before it without a format bump;
* the **harness** — ``run_experiment(shard_window=...)`` stitches a
  windowed run scalar-identical to a single pass for *every registered
  scheme*, across awkward window sizes, resumes a drained run from its
  ledger, and reports per-shard progress;
* the **fault matrix** — ``shard:kill/truncate/stale`` faults at window
  boundaries (``REPRO_FAULT``) recover scalar-identical, including a
  SIGKILL'd sweep worker whose replacement resumes mid-pair.

The command-line entry point, ``scripts/run_sharded.py``, is pinned in
``tests/test_run_sharded.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from functools import cached_property

import pytest

from repro.common import faults
from repro.common.artifacts import entry_name
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import cached_plan, clear_plan_memo, frontend_fingerprint
from repro.harness.experiment import run_experiment
from repro.harness.runner import Runner
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.harness.shards import (
    SHARD_FORMAT,
    DrainRequested,
    ShardLedger,
    ledger_for,
    run_fingerprint,
    shard_window,
    shards_dir,
)
from repro.uarch import timing
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

RECORDS = 4_000
WINDOW = 1_500
WORKLOAD = "media-streaming"


def _scalars(run):
    return {k: getattr(run, k) for k in SCALARS}


@pytest.fixture(autouse=True)
def shard_env(tmp_path, monkeypatch):
    """Isolated ledger/result dirs; no ambient shard config."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_SHARD_WINDOW", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
    faults.reset()
    yield tmp_path
    faults.reset()


@pytest.fixture(scope="module")
def trace():
    return get_workload(WORKLOAD).trace(records=RECORDS)


@pytest.fixture(scope="module")
def context(trace):
    return SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


@pytest.fixture(scope="module")
def plain_runs(context):
    """Single-pass reference scalars, one per scheme, built on demand."""
    memo = {}

    def get(scheme, prefetcher="fdp"):
        key = (scheme, prefetcher)
        if key not in memo:
            memo[key] = _scalars(
                run_experiment(
                    WORKLOAD,
                    scheme,
                    prefetcher=prefetcher,
                    records=RECORDS,
                    context=context,
                ).run
            )
        return memo[key]

    return get


def _sharded(scheme, context, window, **kwargs):
    return run_experiment(
        WORKLOAD,
        scheme,
        records=RECORDS,
        context=context,
        shard_window=window,
        **kwargs,
    ).run


def _state(next_record, tag="x"):
    """A plausible boundary-state stand-in (the ledger is payload-agnostic)."""
    return {
        "mode": "planned",
        "next_record": next_record,
        "counters": {"cycles": float(next_record), "tag": tag},
    }


class TestShardLedger:
    def _ledger(self, tmp_path, window=100, fp="feedface00"):
        return ShardLedger(tmp_path / "shards", f"w.s.{fp}", fp, window)

    def test_roundtrip_latest(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200, "newer"))
        assert ledger.latest() == _state(200, "newer")
        ledger.close()

    def test_resume_across_instances(self, tmp_path):
        self._ledger(tmp_path).record(_state(100))
        again = self._ledger(tmp_path)
        assert again.latest() == _state(100)

    def test_torn_tail_tolerated(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        with open(ledger.ledger_path, "a") as fh:
            fh.write('{"shard": 2, "next_re')  # torn mid-crash line
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_truncated_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        path = ledger.dir / f"{ledger.stem}.s2.state"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_stale_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        (ledger.dir / f"{ledger.stem}.s2.state").write_bytes(faults.STALE_BYTES)
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_missing_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        (ledger.dir / f"{ledger.stem}.s2.state").unlink()
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_foreign_fingerprint_ignored(self, tmp_path):
        self._ledger(tmp_path, fp="feedface00").record(_state(100))
        other = ShardLedger(
            tmp_path / "shards", "w.s.feedface00", "0ddba11000", 100
        )
        assert other.latest() is None

    def test_window_mismatch_ignored(self, tmp_path):
        self._ledger(tmp_path, window=100).record(_state(100))
        assert self._ledger(tmp_path, window=50).latest() is None

    def test_prune_keeps_fallback_horizon(self, tmp_path):
        ledger = self._ledger(tmp_path)
        for k in range(1, 6):
            ledger.record(_state(100 * k))
        kept = sorted(p.name for p in ledger.dir.glob("*.state"))
        assert kept == [f"{ledger.stem}.s4.state", f"{ledger.stem}.s5.state"]
        assert ledger.latest() == _state(500)

    def test_finish_removes_everything(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.finish()
        assert not list((tmp_path / "shards").iterdir())

    def test_close_keeps_files(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        assert ledger.ledger_path.exists()

    def test_entries_skip_junk_lines(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        with open(ledger.ledger_path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"no": "keys"}) + "\n")
        entries = self._ledger(tmp_path).entries()
        assert [e["next_record"] for e in entries if "next_record" in e] == [100]

    def test_format_bump_ignored(self, tmp_path, monkeypatch):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        import repro.harness.shards as shards_mod

        monkeypatch.setattr(shards_mod, "SHARD_FORMAT", SHARD_FORMAT + 1)
        assert self._ledger(tmp_path).latest() is None

    def test_ledger_for_fingerprint_sensitivity(self):
        base = dict(
            workload="w", scheme="s", prefetcher_key="fdp", records=1000,
            machine_fingerprint="m", trace_digest="t",
        )
        a = ledger_for(window=100, **base)
        b = ledger_for(window=200, **base)
        c = ledger_for(window=100, **{**base, "scheme": "s2"})
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3
        assert a.stem != b.stem

    FP_ARGS = (WORKLOAD, "lru", "fdp", 6_000, "mfp", "digest", 2000)

    def test_run_fingerprint_sensitivity(self):
        base = run_fingerprint(*self.FP_ARGS)
        for i in range(len(self.FP_ARGS)):
            changed = list(self.FP_ARGS)
            changed[i] = "other" if isinstance(changed[i], str) else 999
            assert run_fingerprint(*changed) != base, f"ingredient {i} ignored"

    def test_run_fingerprint_is_stable(self):
        """Ledgers already on disk must keep resuming: the identity
        string (``ckpt1|...|planned+w<window>``) may never change
        silently."""
        assert run_fingerprint(*self.FP_ARGS) == "2cad6daae4258a64"

    def test_record_leaves_no_tmp(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        assert not [p for p in ledger.dir.iterdir() if ".tmp" in p.name]


def _layout(graph, trace) -> set:
    """``(class, attribute names)`` of every project object in ``graph``.

    Walks instance attributes and container items.  The trace and the
    next-use oracle are pickled by reference, so their layout is not
    the state's; attributes a ``cached_property`` fills are caches an
    unpickled object recomputes, so they are left out too.
    """
    layout, seen, stack = set(), set(), [graph]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is trace:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        cls = type(obj)
        if not cls.__module__.startswith("repro.") or isinstance(
            obj, timing.NextUseOracle
        ):
            continue
        attrs = {
            name: value
            for name, value in getattr(obj, "__dict__", {}).items()
            if not isinstance(getattr(cls, name, None), cached_property)
        }
        for klass in cls.__mro__:
            for name in getattr(klass, "__slots__", ()):
                if hasattr(obj, name):
                    attrs[name] = getattr(obj, name)
        layout.add((f"{cls.__module__}.{cls.__qualname__}", tuple(sorted(attrs))))
        stack.extend(attrs.values())
    return layout


class TestStateLayout:
    """A ledger's boundary states unpickle straight into the engine's
    collaborators, so a state written by code with another attribute
    layout breaks the resumed run (an ``AttributeError`` at its first
    record).  ``ShardLedger.latest`` discards states of another
    ``SHARD_FORMAT``: the layout of every scheme's capture (and of the
    live entangling prefetcher's) is pinned here to the format.  When
    this fails, bump ``SHARD_FORMAT``, say in its comment what changed,
    and pin the new digest under the new format.
    """

    #: SHARD_FORMAT -> digest of the captured layout.
    LAYOUTS = {5: "bab5bd363aab143a"}
    AT = 2_000

    def _graph(self, trace, scheme, **kwargs):
        captured = []
        timing.simulate(
            trace,
            scheme,
            machine=DEFAULT_MACHINE,
            checkpoint_every=self.AT,
            on_checkpoint=lambda state: captured.append(state) or True,
            **kwargs,
        )
        return timing._GraphUnpickler(
            io.BytesIO(captured[0]["graph"]), trace, scheme
        ).load()

    def test_layout_is_pinned_to_the_format(self, trace, context):
        layout = set()
        for name in sorted(available_schemes()):
            scheme = make_scheme(name, context)
            plan = cached_plan(trace, DEFAULT_MACHINE, "fdp")
            layout |= _layout(self._graph(trace, scheme, plan=plan), trace)
        scheme = make_scheme("lru", context)
        layout |= _layout(
            self._graph(
                trace,
                scheme,
                plan=cached_plan(trace, DEFAULT_MACHINE, "none"),
                prefetcher=EntanglingPrefetcher(trace),
            ),
            trace,
        )
        digest = hashlib.sha1(repr(sorted(layout)).encode()).hexdigest()[:16]
        assert SHARD_FORMAT in self.LAYOUTS, "pin the layout of the new format"
        assert digest == self.LAYOUTS[SHARD_FORMAT], (
            f"the captured state layout changed (digest {digest}): bump "
            "SHARD_FORMAT so older ledgers are discarded, then pin it"
        )

    def test_acic_layout_names_the_format_5_attributes(self, trace, context):
        """The attributes that made format 5 are in an ACIC capture."""
        graph = self._graph(
            trace,
            make_scheme("acic", context),
            plan=cached_plan(trace, DEFAULT_MACHINE, "fdp"),
        )
        attrs = {name for _, names in _layout(graph, trace) for name in names}
        assert {"_tag_counts", "_cshr_counts", "_queued"} <= attrs


class TestShardedStitching:
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_every_scheme_stitches_identical(
        self, scheme, context, plain_runs
    ):
        run = _sharded(scheme, context, WINDOW)
        assert _scalars(run) == plain_runs(scheme)
        assert not list(shards_dir().glob("*")), (
            "completed sharded run must clean its ledger"
        )

    @pytest.mark.parametrize("window", (129, 1_000, 3_999, 4_000, 9_999))
    def test_awkward_window_sizes(self, window, context, plain_runs):
        assert _scalars(_sharded("lru", context, window)) == plain_runs("lru")

    def test_acic_awkward_window(self, context, plain_runs):
        assert _scalars(_sharded("acic", context, 1_999)) == plain_runs("acic")

    def test_env_window_routes_through_shards(
        self, context, plain_runs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARD_WINDOW", str(WINDOW))
        run = run_experiment(
            WORKLOAD, "lru", records=RECORDS, context=context
        ).run
        assert _scalars(run) == plain_runs("lru")
        assert not list(shards_dir().glob("*"))

    def test_cold_entangling_run_windows_drains_and_resumes(
        self, context, trace, plain_runs, tmp_path, monkeypatch
    ):
        """A cold entangling run, windowed like any other: every
        boundary is reported, a drain keeps the ledger (the live
        prefetcher's table rides in it), the rerun resumes to the
        unwindowed scalars, and the only plan cached is the ``none``
        plan the run takes its branch flushes from."""
        plans = tmp_path / "plans"
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(plans))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        clear_plan_memo()  # a memoised plan would never reach the disk

        def run(**kwargs):
            return run_experiment(
                WORKLOAD,
                "lru",
                prefetcher="entangling",
                records=RECORDS,
                context=context,
                shard_window=WINDOW,
                on_shard=lambda s, d, t: boundaries.append((s, d, t)),
                **kwargs,
            ).run

        boundaries = []
        with pytest.raises(DrainRequested) as excinfo:
            run(should_stop=lambda: len(boundaries) >= 1)
        assert excinfo.value.records_done == WINDOW
        assert list(shards_dir().glob("*.ledger")), "drain must keep the ledger"

        resumed = run()
        total = len(trace)
        assert boundaries == [
            (k, k * WINDOW, total) for k in range(1, total // WINDOW + 1)
        ], "each boundary fires once, the resume skipping the done shard"
        assert not list(shards_dir().glob("*"))
        none_plan = entry_name(
            trace.name, frontend_fingerprint(trace, DEFAULT_MACHINE, "none")
        )
        assert sorted(p.name for p in plans.glob("*.npz")) == [f"{none_plan}.npz"]
        assert _scalars(resumed) == plain_runs("lru", prefetcher="entangling")

    def test_shard_progress_reported(self, context, trace):
        boundaries = []
        _sharded(
            "lru", context, WINDOW,
            on_shard=lambda s, d, t: boundaries.append((s, d, t)),
        )
        total = len(trace)
        assert boundaries == [
            (k, k * WINDOW, total) for k in range(1, total // WINDOW + 1)
        ]

    def test_drain_persists_and_resumes_identical(self, context, plain_runs):
        boundaries = []
        with pytest.raises(DrainRequested) as excinfo:
            _sharded(
                "acic", context, WINDOW,
                on_shard=lambda s, d, t: boundaries.append(s),
                should_stop=lambda: len(boundaries) >= 1,
            )
        assert excinfo.value.records_done == WINDOW
        assert list(shards_dir().glob("*.ledger")), "drain must keep the ledger"

        resumed_boundaries = []
        run = _sharded(
            "acic", context, WINDOW,
            on_shard=lambda s, d, t: resumed_boundaries.append(s),
        )
        assert resumed_boundaries[0] == 2, "resume must skip the done shard"
        assert _scalars(run) == plain_runs("acic")
        assert not list(shards_dir().glob("*"))

    @pytest.mark.parametrize("scheme", ("lru", "opt", "acic"))
    def test_resume_inside_repeat_run(self, scheme, context, trace, plain_runs):
        """A window boundary mid-run of repeat-block hits: the batched
        hits reach the scheme before the ledgered capture, and the
        drained run resumes to the single-pass scalars."""
        blocks = trace.blocks_list
        window = next(
            w for w in range(1_000, len(trace))
            if blocks[w] == blocks[w - 1] == blocks[w - 2]
        )
        boundaries = []
        with pytest.raises(DrainRequested):
            _sharded(
                scheme, context, window,
                on_shard=lambda s, d, t: boundaries.append(d),
                should_stop=lambda: bool(boundaries),
            )
        assert boundaries == [window]
        resumed = []
        run = _sharded(
            scheme, context, window,
            on_shard=lambda s, d, t: resumed.append(s),
        )
        assert resumed[0] == 2, "resume must skip the done shard"
        assert _scalars(run) == plain_runs(scheme)
        assert not list(shards_dir().glob("*"))


class TestShardFaults:
    """The shard fault site: crash/corruption at window boundaries."""

    @pytest.fixture()
    def arm(self, shard_env, monkeypatch):
        def _arm(spec, latch=True):
            monkeypatch.setenv("REPRO_FAULT", spec)
            if latch:
                monkeypatch.setenv(
                    "REPRO_FAULT_ONCE", str(shard_env / "latch")
                )
            faults.reset()

        yield _arm
        faults.reset()

    @pytest.mark.parametrize("kind", ("truncate", "stale"))
    def test_mangled_boundary_falls_back_one_shard(
        self, kind, arm, context, plain_runs
    ):
        """Corrupt the newest committed state, drain there, resume.

        truncate/stale do not interrupt execution, so the test drains
        at the mangled boundary: resume must detect the bad sha1, fall
        back one shard, recompute the lost window and still stitch
        scalar-identical.
        """
        plain = plain_runs("lru")
        arm(f"shard:{kind}@2")
        boundaries = []
        with pytest.raises(DrainRequested):
            _sharded(
                "lru", context, WINDOW,
                on_shard=lambda s, d, t: boundaries.append(s),
                should_stop=lambda: len(boundaries) >= 2,
            )
        resumed = []
        run = _sharded(
            "lru", context, WINDOW, on_shard=lambda s, d, t: resumed.append(s)
        )
        assert resumed[0] == 2, "mangled shard 2 must be recomputed"
        assert _scalars(run) == plain
        assert not list(shards_dir().glob("*"))

    def test_raise_at_boundary_resumes(self, arm, context, plain_runs):
        plain = plain_runs("lru")
        arm("shard:raise@2")
        with pytest.raises(faults.FaultInjected):
            _sharded("lru", context, WINDOW)
        resumed = []
        run = _sharded(
            "lru", context, WINDOW, on_shard=lambda s, d, t: resumed.append(s)
        )
        assert resumed[0] == 3, "boundary 2 was committed before the crash"
        assert _scalars(run) == plain

    def test_killed_sweep_worker_resumes_mid_pair(
        self, arm, monkeypatch, plain_runs
    ):
        """SIGKILL a pool worker between windows; supervision recovers.

        The replacement worker's ``run_experiment`` finds the dead
        worker's fsync'd ledger and resumes from its last boundary —
        the end-to-end crash path the tentpole promises.
        """
        expected = {
            (WORKLOAD, s): plain_runs(s) for s in ("lru", "acic")
        }
        monkeypatch.setenv("REPRO_SHARD_WINDOW", str(WINDOW))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        arm("shard:kill@2")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep_pairs(list(expected), jobs=2)
        assert {k: _scalars(v) for k, v in results.items()} == expected
        assert not list(shards_dir().glob("*"))
