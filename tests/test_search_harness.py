"""End-to-end contracts of the workload-search harness.

Everything runs against tiny record counts and fully isolated cache /
registry directories (per-test ``tmp_path``), so these are real
searches — sampling, scoring through the Runner, resuming from its
result cache, shrinking, persisting — just very small ones.
"""

import json
from dataclasses import replace

import pytest

from repro.harness import runner as runner_module
from repro.harness.runner import Runner
from repro.harness.scoring import score_profile, score_workload
from repro.workloads import profiles as profiles_module
from repro.workloads.profiles import (
    get_workload,
    known_workload_names,
    reload_found_workloads,
)
from repro.workloads.search.harness import SearchConfig, run_search
from repro.workloads.search.registry import (
    load_found_entry,
    load_found_profiles,
    read_ratchet,
    save_found_profile,
)
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.search.strategies import FIG11_SPACE

RECORDS = 1_500


@pytest.fixture()
def isolated(tmp_path, monkeypatch):
    """Route every persistent side effect into this test's tmp dir."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
    monkeypatch.setenv("REPRO_FOUND_PROFILES", str(tmp_path / "found"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    reload_found_workloads()
    yield tmp_path
    # invalidate lazily (not reload): the test may have left a corrupt
    # registry behind, and teardown must not raise on it.
    profiles_module._found_workloads = None


def _config(**overrides) -> SearchConfig:
    base = dict(
        budget=3, seed=17, records=RECORDS, min_share=0.0,
        shrink=False, shrink_evaluations=8, top=1,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestResume:
    def test_scored_candidates_keep_no_walk(self, isolated):
        """Each candidate is scored at one length: its walk (and the
        program it pins) is dropped once scored."""
        run_search(_config(budget=2))
        assert profiles_module._walks == {}

    def test_killed_run_resumes_without_resimulating(self, isolated):
        first = run_search(_config(budget=2))
        assert (first.simulated, first.replayed) == (2, 0)
        # the result cache survives "the kill" (its entries are fsynced
        # files); a larger-budget rerun finds the prefix warm and
        # extends it.
        resumed = run_search(_config(budget=3))
        assert (resumed.simulated, resumed.replayed) == (1, 2)
        assert resumed.samples[:2] == first.samples

    def test_full_rerun_is_pure_replay_and_identical(self, isolated):
        one = run_search(_config())
        two = run_search(_config())
        assert (two.simulated, two.replayed) == (0, one.simulated)
        assert [
            (s.fingerprint, c.to_jsonable()) for s, c in two.samples
        ] == [(s.fingerprint, c.to_jsonable()) for s, c in one.samples]

    def test_journal_ignores_mismatched_grid(self, isolated):
        run_search(_config())
        # same specs at a different record count must not replay
        other = run_search(_config(records=2 * RECORDS))
        assert other.replayed == 0 and other.simulated == 3

    def test_other_machine_resimulates_every_spec(self, isolated):
        """Scores are keyed by the machine: a search on another machine
        replays none of the default machine's cards."""
        run_search(_config(budget=2))
        machine = replace(DEFAULT_MACHINE, mshr_entries=2)
        runner = Runner(records=RECORDS, machine=machine)
        other = run_search(_config(budget=2), runner=runner)
        assert (other.simulated, other.replayed) == (2, 0)
        direct = Runner(records=RECORDS, machine=machine, use_disk_cache=False)
        assert [c for _, c in other.samples] == [
            score_profile(direct, s.build()) for s, _ in other.samples
        ]


class TestDeterminism:
    def test_fresh_result_cache_resimulates_identically(
        self, isolated, monkeypatch
    ):
        one = run_search(_config())
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(isolated / "fresh"))
        calls = []
        real = runner_module.run_experiment
        monkeypatch.setattr(
            runner_module,
            "run_experiment",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        two = run_search(_config())
        assert (two.simulated, two.replayed) == (3, 0)
        assert len(calls) == 3 * len(two.samples)
        assert [
            (s.fingerprint, c.share) for s, c in one.samples
        ] == [(s.fingerprint, c.share) for s, c in two.samples]


class TestShrinkAndRegistry:
    def test_shrunk_winner_round_trips_and_rescores(self, isolated):
        report = run_search(_config(shrink=True, save=True, update_ratchet=True))
        assert report.winners and report.shrunk and report.saved
        record = report.shrunk[0]
        assert record.card.share >= 0.0
        path = report.saved[0]
        spec, payload = load_found_entry(path)
        assert spec == record.spec
        # the found profile is a first-class workload in a fresh resolver
        reload_found_workloads()
        assert spec.workload_name in known_workload_names()
        profile = get_workload(spec.workload_name)
        assert profile == spec.build()
        # re-simulating from scratch reproduces the recorded score
        fresh = Runner(records=RECORDS, use_disk_cache=False)
        card = score_workload(fresh, profile.name)
        assert card.to_jsonable() == payload["score"]

    def test_ratchet_updates_only_upward(self, isolated):
        report = run_search(_config(shrink=True, save=True, update_ratchet=True))
        best = max(r.card.share for r in report.shrunk)
        recorded = read_ratchet().get("best_found", {}).get("share", 0.0)
        # the ratchet advances only on a strictly positive improvement
        # (a 0.0-share winner on this tiny grid does not move it).
        assert recorded == (best if best > 0.0 else 0.0)
        # seed an artificially higher bar; a rerun must not lower it
        from repro.workloads.search.registry import write_ratchet

        bar = best + 1.0
        write_ratchet({"best_found": {"name": "manual", "share": bar}})
        run_search(_config(shrink=True, save=True, update_ratchet=True))
        assert read_ratchet()["best_found"]["share"] == bar

    def test_corrupt_registry_file_raises(self, isolated):
        report = run_search(_config(shrink=True, save=True))
        path = report.saved[0]
        payload = json.loads(path.read_text())
        payload["spec"]["values"]["seed"] = (
            int(payload["spec"]["values"]["seed"]) + 1
        )  # spec edited under a stale filename
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_found_profiles()

    def test_save_is_stable_across_reruns(self, isolated):
        a = run_search(_config(shrink=True, save=True))
        b = run_search(_config(shrink=True, save=True))
        assert [p.name for p in a.saved] == [p.name for p in b.saved]
        spec_a, payload_a = load_found_entry(a.saved[0])
        spec_b, payload_b = load_found_entry(b.saved[0])
        assert spec_a == spec_b and payload_a["score"] == payload_b["score"]
