"""Durable files: the results directory, atomic writes, fsync'd logs.

Three small primitives every crash-safe writer in the harness shares:

* :func:`results_dir` — where results, sweep journals and shard
  ledgers live (``REPRO_RESULT_CACHE``, default ``.cache/results``);
* :func:`write_atomic` — write-then-rename through a temp name unique
  to the writer (``tempfile.mkstemp``), so readers never observe a
  partial file, concurrent writers never share a temp file, and a
  failed write leaves no temp file behind;
* :class:`AppendLog` — an append-only JSON-lines log.  Each entry is
  written, flushed and fsynced before :meth:`AppendLog.append`
  returns, so it survives a SIGKILL; :meth:`AppendLog.entries` skips a
  torn last line (a kill mid-append), junk and non-dict lines.  The
  sweep journal, the search journal and the shard-ledger index are
  thin users that add their own entry validation and lifecycle.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List


def results_dir() -> Path:
    """The results-cache directory (``REPRO_RESULT_CACHE``)."""
    env = os.environ.get("REPRO_RESULT_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".cache" / "results"


def write_atomic(path: Path, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` in one rename, creating its directory.

    ``fsync=True`` flushes the bytes to disk before the rename, for
    files a later fsync'd log entry will point at.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)  # only still there on failure


class AppendLog:
    """Append-only JSON-lines file with one fsync per entry."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fh = None

    def append(self, entry: dict) -> None:
        """Write ``entry`` as one line; durable when this returns."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def entries(self) -> List[dict]:
        """Every entry that parses as a JSON object, oldest first."""
        try:
            lines = self.path.read_text(errors="replace").splitlines()
        except OSError:
            return []
        out = []
        for line in lines:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                out.append(entry)
        return out

    def close(self) -> None:
        """Close the handle, keeping the file."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def remove(self) -> None:
        """Close and delete the file."""
        self.close()
        self.path.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
