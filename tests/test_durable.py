"""The durable-file primitives under the result cache and the shard
ledger (``repro.common.durable``).

``AppendLog`` is pinned directly here: one fsync per append, replay
that skips torn, junk and non-dict lines, appends after a reopen that
keep what was there, and ``remove``.  ``write_atomic`` is pinned for
its rename and opt-in fsync, and the result cache for using it: one
fsync per freshly simulated pair, none on a hit.  The ledger test
file remains the integration check for the log.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.common import durable
from repro.common.durable import AppendLog, results_dir, write_atomic
from repro.harness.runner import Runner


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls made through the durable module."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(durable.os, "fsync", counting)
    return calls


class TestAppendLog:
    def test_roundtrip_in_order(self, tmp_path):
        log = AppendLog(tmp_path / "sub" / "a.log")
        assert log.entries() == []  # no file yet
        log.append({"k": 1})
        log.append({"k": 2, "nested": {"x": [1, 2]}})
        log.close()
        assert log.entries() == [{"k": 1}, {"k": 2, "nested": {"x": [1, 2]}}]

    def test_one_fsync_per_append(self, tmp_path, fsyncs):
        log = AppendLog(tmp_path / "a.log")
        for k in range(3):
            log.append({"k": k})
            assert len(fsyncs) == k + 1
        log.close()

    def test_torn_last_line_skipped(self, tmp_path):
        log = AppendLog(tmp_path / "a.log")
        log.append({"k": 1})
        log.close()
        with open(log.path, "a") as fh:
            fh.write(json.dumps({"k": 2})[:5])  # a kill mid-append
        assert AppendLog(log.path).entries() == [{"k": 1}]

    def test_junk_and_non_dict_lines_skipped(self, tmp_path):
        path = tmp_path / "a.log"
        path.write_bytes(
            b"not json at all\n"
            + b'{"k": 1}\n'
            + b"[1, 2, 3]\n"
            + b'"a string"\n'
            + b"42\n"
            + b"\xff\xfe binary junk\n"
            + b'{"k": 2}\n'
        )
        assert AppendLog(path).entries() == [{"k": 1}, {"k": 2}]

    def test_append_after_reopen_keeps_entries(self, tmp_path):
        with AppendLog(tmp_path / "a.log") as log:
            log.append({"k": 1})
        with AppendLog(tmp_path / "a.log") as again:
            again.append({"k": 2})
        assert AppendLog(tmp_path / "a.log").entries() == [{"k": 1}, {"k": 2}]

    def test_close_keeps_and_remove_deletes(self, tmp_path):
        log = AppendLog(tmp_path / "a.log")
        log.append({"k": 1})
        log.close()
        log.close()  # idempotent
        assert log.path.exists()
        log.remove()
        assert not log.path.exists()
        log.remove()  # idempotent, also without a file


class TestWriteAtomic:
    def test_writes_and_creates_directory(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        write_atomic(path, b"one")
        write_atomic(path, b"two")
        assert path.read_bytes() == b"two"
        assert [p.name for p in path.parent.iterdir()] == ["b.json"]

    def test_fsync_is_opt_in(self, tmp_path, fsyncs):
        write_atomic(tmp_path / "a", b"x")
        assert fsyncs == []
        write_atomic(tmp_path / "b", b"x", fsync=True)
        assert len(fsyncs) == 1

    def test_failed_rename_leaves_no_tmp(self, tmp_path, monkeypatch):
        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", broken)
        with pytest.raises(OSError):
            write_atomic(tmp_path / "a", b"x")
        assert list(tmp_path.iterdir()) == []


class TestResultCacheFsync:
    """The result cache is the durable record that a pair finished."""

    PAIRS = (("x264", "lru"), ("x264", "srrip"), ("gcc", "lru"))

    @pytest.fixture()
    def inodes(self, tmp_path_factory, monkeypatch):
        """The log of the inodes ``os.fsync`` is called on, one a line.

        A file, not a list: the sweep workers a ``jobs=2`` sweep forks
        inherit the recording ``fsync`` and write their entries there.
        """
        log = tmp_path_factory.mktemp("fsyncs") / "inodes"
        log.touch()
        real = os.fsync

        def recording(fd):
            with open(log, "a") as fh:
                fh.write(f"{os.fstat(fd).st_ino}\n")
            real(fd)

        monkeypatch.setattr(durable.os, "fsync", recording)
        return log

    @staticmethod
    def synced(log):
        return sorted(int(line) for line in log.read_text().split())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_fsync_per_fresh_pair_none_on_hit(
        self, tmp_path, monkeypatch, inodes, jobs
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        runner = Runner(records=2_000, use_disk_cache=True)
        for workload in {w for w, _ in self.PAIRS}:
            runner.context_for(workload)  # artifact writes happen first
        inodes.write_text("")
        runner.sweep_pairs(self.PAIRS, jobs=jobs)
        entries = sorted(p.stat().st_ino for p in tmp_path.glob("*.json"))
        assert len(entries) == len(self.PAIRS)
        assert self.synced(inodes) == entries, (
            "each fresh pair's result entry is fsynced exactly once, "
            "and nothing else is (trace-keyed entries included)"
        )
        assert len(list((tmp_path / "by-trace").iterdir())) == len(self.PAIRS)

        inodes.write_text("")
        warm = Runner(records=2_000, use_disk_cache=True)
        warm.sweep_pairs(self.PAIRS, jobs=jobs)
        warm.run(*self.PAIRS[0])
        assert self.synced(inodes) == [], "cache hits write nothing"


def test_results_dir_honours_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    assert results_dir() == tmp_path
    monkeypatch.delenv("REPRO_RESULT_CACHE")
    assert results_dir() == (
        Path(durable.__file__).resolve().parents[3] / ".cache" / "results"
    )
