"""``scripts/search_workloads.py``: where a search keeps its caches.

A default search puts its results, traces and plans under the ignored
``.cache/search/``, never into the tracked ``.cache/results``,
``.cache/traces`` or ``.cache/plans``; ``--ratchet-fig11`` still reads
the committed results; ``--selfcheck`` removes its temp directory
however it ends.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.common.durable import results_dir
from repro.frontend.plan import PLAN_STORE
from repro.workloads.search import harness
from repro.workloads.trace import TRACE_STORE

REPO = Path(__file__).resolve().parents[1]
CACHE = REPO / ".cache"
#: What the script sets; each is restored after every test.
SCRIPT_VARS = (
    "REPRO_RESULT_CACHE",
    "REPRO_TRACE_CACHE",
    "REPRO_PLAN_CACHE",
    "REPRO_FOUND_PROFILES",
    "REPRO_NO_DISK_CACHE",
)


@pytest.fixture()
def script(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    import search_workloads

    for var in SCRIPT_VARS:
        # setenv records the caller's value, so teardown restores it
        # over whatever the script leaves.
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    return search_workloads


def _resolved() -> tuple:
    """The result, trace and plan cache directories, as resolved now."""
    return results_dir(), TRACE_STORE.cache_dir(), PLAN_STORE.cache_dir()


def _recording_search(seen: list):
    def run_search(config, log=print):
        seen.append(_resolved())
        return SimpleNamespace(simulated=0, replayed=0, best=None, shrunk=[])

    return run_search


def test_default_search_caches_under_dot_cache_search(script, monkeypatch):
    seen = []
    monkeypatch.setattr(harness, "run_search", _recording_search(seen))
    assert script.main(["--budget", "1"]) == 0
    search = CACHE / "search"
    assert seen == [(search / "results", search / "traces", search / "plans")]


def test_redirected_cache_is_kept(script, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    seen = []
    monkeypatch.setattr(harness, "run_search", _recording_search(seen))
    assert script.main(["--budget", "1"]) == 0
    assert seen[0][1] == tmp_path


def test_ratchet_reads_the_committed_caches(script, monkeypatch):
    seen = []
    monkeypatch.setattr(script, "ratchet_fig11", lambda: seen.append(_resolved()))
    script.main(["--ratchet-fig11"])
    assert seen == [(CACHE / "results", CACHE / "traces", CACHE / "plans")]


def test_selfcheck_removes_its_temp_dir_when_it_fails(script, monkeypatch):
    seen = []

    def failing_search(config, log=print):
        seen.append(results_dir())
        raise AssertionError("the smoke search failed")

    monkeypatch.setattr(harness, "run_search", failing_search)
    with pytest.raises(AssertionError, match="smoke search failed"):
        script.selfcheck()
    tmp = seen[0].parent
    assert tmp.name.startswith("search-selfcheck-")
    assert not tmp.exists()
