"""``scripts/run_sharded.py`` end to end, as a subprocess with isolated caches.

One pair (x264/lru, 4000 records, 1000-record windows):

* an uninterrupted run exits 0 and prints the ``cycles=`` of a
  single-pass :func:`~repro.harness.experiment.run_experiment`;
* SIGTERM stops the run gracefully at a shard boundary (exit 3, ledger
  kept), and rerunning the same command resumes at shard 2 and prints
  the same ``cycles=``;
* ``--window 0`` is a usage error.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.experiment import run_experiment

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "run_sharded.py"
ARGS = ["x264", "lru", "--records", "4000", "--window", "1000"]


def _isolate(patch, root):
    for env, sub in (
        ("REPRO_RESULT_CACHE", "results"),
        ("REPRO_TRACE_CACHE", "traces"),
        ("REPRO_PLAN_CACHE", "plans"),
    ):
        patch.setenv(env, str(root / sub))


@pytest.fixture()
def caches(tmp_path, monkeypatch):
    """Point every cache at ``tmp_path / "run"``, inherited by the script."""
    _isolate(monkeypatch, tmp_path / "run")
    for env in ("REPRO_SHARD_WINDOW", "REPRO_FAULT", "REPRO_FAULT_ONCE"):
        monkeypatch.delenv(env, raising=False)
    return tmp_path / "run"


def _start(*args):
    return subprocess.Popen(
        [sys.executable, str(SCRIPT), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ),
    )


def _finish(proc):
    out, err = proc.communicate(timeout=300)
    return proc.returncode, out, err


def _cycles(out):
    match = re.search(r"cycles=(\S+)", out)
    assert match, out
    return float(match.group(1))


def _shards(out):
    return [int(n) for n in re.findall(r"^shard (\d+) complete", out, re.M)]


@pytest.fixture()
def single_pass(caches, tmp_path):
    """Reference cycles, built in caches of their own: the script's start cold."""
    with pytest.MonkeyPatch.context() as patch:
        _isolate(patch, tmp_path / "reference")
        return run_experiment("x264", "lru", records=4000).run.cycles


def test_uninterrupted_run_matches_single_pass(caches, single_pass):
    code, out, err = _finish(_start(*ARGS))
    assert code == 0, err
    assert _shards(out) == [1, 2, 3, 4]
    assert _cycles(out) == single_pass
    assert not list((caches / "results" / "shards").glob("*")), (
        "a completed run deletes its ledger"
    )


def test_sigterm_drains_and_rerun_resumes(caches, single_pass):
    """SIGTERM mid-run: exit 3 at the first boundary, then resume at 2.

    The signal is sent once the child has written its trace, which it
    does only after installing its handler, so the stop lands at the
    first shard boundary on every machine, however fast the windows run.
    """
    proc = _start(*ARGS)
    deadline = time.monotonic() + 120
    while not list((caches / "traces").glob("*.npz")):
        assert proc.poll() is None, _finish(proc)
        assert time.monotonic() < deadline, "the child never wrote its trace"
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)
    code, out, err = _finish(proc)
    assert code == 3, (out, err)
    assert _shards(out) == [1]
    assert "re-run to resume" in out
    assert list((caches / "results" / "shards").glob("*.ledger"))

    code, out, err = _finish(_start(*ARGS))
    assert code == 0, err
    assert _shards(out) == [2, 3, 4], "the rerun starts from the ledger"
    assert _cycles(out) == single_pass


def test_zero_window_is_a_usage_error(caches):
    code, out, err = _finish(_start("x264", "lru", "--window", "0"))
    assert code == 2
    assert "--window must be >= 1" in err
