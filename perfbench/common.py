"""Shared benchmark plumbing: cache isolation, spans, percentiles, RSS.

Nothing here imports :mod:`repro` at module load, so ``run.py`` can
report a missing source tree before touching it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Repository root: the benchmark always runs from a checkout of it.
ROOT = Path(__file__).resolve().parents[1]

#: Scratch area for isolated caches and span logs (gitignored).
WORK_DIR = ROOT / ".perfbench_work"

#: The environment variables that point every artifact/result store
#: somewhere; each benchmark phase gets fresh empty directories.
CACHE_VARS = (
    "REPRO_TRACE_CACHE",
    "REPRO_PLAN_CACHE",
    "REPRO_RESULT_CACHE",
    "REPRO_SEARCH_DIR",
)

#: The seed that keeps every profile's calibrated seed, so sweep outputs
#: can be compared bit-for-bit with the committed ``.cache/results``.
DEFAULT_SEED = 0


# -- isolation -----------------------------------------------------------------


def cache_listing(root: Path = ROOT / ".cache") -> Dict[str, Tuple[int, int]]:
    """(size, mtime_ns) of every file under the repo's ``.cache``."""
    listing = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = Path(dirpath) / name
            st = path.stat()
            listing[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return listing


class Isolation:
    """Fresh cache directories per phase, all inside the checkout.

    ``phase(name)`` points the ``REPRO_*`` cache variables (and
    ``TMPDIR``) at new empty directories, so "cold" is really cold and
    nothing reads or writes the repo's ``.cache``.  ``close()`` removes
    everything and reports whether ``.cache`` changed meanwhile.
    """

    def __init__(self, label: str) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_DIR))
        self._before = cache_listing()
        os.environ["TMPDIR"] = str(self.dir)
        tempfile.tempdir = None  # re-read TMPDIR

    def phase(self, name: str) -> None:
        """Point the cache variables at fresh empty directories."""
        base = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.dir))
        for var in CACHE_VARS:
            path = base / var.lower()
            path.mkdir()
            os.environ[var] = str(path)

    def close(self) -> List[str]:
        """Remove the scratch dirs; return ``.cache`` paths that changed."""
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # spans or another run's dirs still there
        after = cache_listing()
        changed = {
            path
            for path in set(self._before) | set(after)
            if self._before.get(path) != after.get(path)
        }
        return sorted(changed)


def reset_artifact_memos() -> None:
    """Drop the in-process plan/pre-pass memos (a new phase is cold)."""
    from repro.frontend.plan import clear_plan_memo
    from repro.mem.prepass import clear_prepass_memo

    clear_plan_memo()
    clear_prepass_memo()


class Bench:
    """What one workload run reports: metrics, counts, problems, notes."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        #: Wrong outputs; any makes the run incorrect.
        self.problems: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id).

    Spans nest by call order on one thread.  ``self_times`` subtracts
    each span's children from its duration.  ``patch`` wraps a public
    function or method of the program in a span for the duration of a
    ``with`` block; the program's own files are never edited.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, request]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    @contextmanager
    def patch(self, targets: Iterable[tuple]):
        """Wrap ``(owner, attribute, span name[, counter])`` targets.

        Class attributes keep their descriptor kind (classmethods stay
        classmethods); everything is restored on exit.
        """
        saved = []
        try:
            for owner, attr, name, *count in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    bound = getattr(owner, attr)
                    wrapped = self.wrap(name, bound, *count)
                    setattr(owner, attr, classmethod(lambda cls, *a, _w=wrapped, **k: _w(*a, **k)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, *count))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "request": req}
                    )
                    + "\n"
                )


# -- statistics ----------------------------------------------------------------

def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it -- the 11th-largest sample -- else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[-11], 100.0 * (n - 10) / n, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties)."""

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return cov / var if var else 0.0
