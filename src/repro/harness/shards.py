"""Windowed shard execution: the one way a run resumes.

A *shard* is one fixed-size window of records out of a long run.  With
``REPRO_SHARD_WINDOW=<records>`` set (or ``shard_window=`` passed to
:func:`repro.harness.experiment.run_experiment`), a run executes as a
sequence of windows over the same memory-mapped trace/plan: the engine
checkpoints at every window boundary (``checkpoint_every=window``), and
each boundary's warm state — caches, predictor tables, MSHRs, loop
counters — lands in a fsync'd, fingerprinted **shard ledger** before
the next window starts.  Because the windows drive one deterministic
engine loop, the stitched full-length result is *structurally*
bit-identical to a single pass; ``tests/test_shards.py`` pins it for
every registered scheme anyway.

The ledger is two kinds of file under ``<results cache>/shards/``:

* ``<workload>.<scheme>.<fp>.ledger`` — the index, an
  :class:`~repro.common.durable.AppendLog` with one line per completed
  window: shard index, next record, the partial counters, and the sha1
  of the boundary-state file.  Each line is fsynced at its boundary,
  so entries survive a SIGKILL; replay skips a torn final line and
  foreign junk.
* ``<workload>.<scheme>.<fp>.s<k>.state`` — the engine's capture at
  boundary ``k``: its loop counters and one pickle of the scheme,
  MSHRs, hierarchy and live prefetcher, which holds the trace and the
  next-use oracle by reference only, so a resume rebuilds those two
  from the run's identity (write-then-rename, fsynced before the
  rename).  Only
  the two newest survive: a mangled newest state (crash mid-write, or
  an injected ``shard:truncate``/``shard:stale`` fault) falls back to
  the previous boundary, costing one window of recomputation, never
  correctness.

:func:`ShardLedger.latest` walks the ledger backwards past anything
corrupt, stale, or carrying a foreign fingerprint — a ledger entry is a
shortcut, never a correctness dependency.  The fingerprint is
:func:`run_fingerprint`, window size included, so a ledger can never
resume a run it does not exactly describe.

**Drain**: ``should_stop`` is polled at each boundary *after* the
ledger write; when it reports true, :func:`run_windowed` raises
:class:`DrainRequested` with the boundary already persisted.  The sweep
service uses this for graceful SIGTERM shutdown — in-flight pairs run
to their next window boundary, ledger their state, and the restarted
server resumes from there (``tests/test_service_drain.py``).

The ``shard`` fault site (``REPRO_FAULT="shard:kill@n"`` etc., see
:mod:`repro.common.faults`) fires after boundary ``n``'s ledger commit,
with the state file as its path: ``kill`` proves a SIGKILL between
windows resumes scalar-identically, ``truncate``/``stale`` prove the
fallback to the previous boundary does too.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Callable, Optional

from repro.common.durable import AppendLog, results_dir, write_atomic
from repro.common.env import env_number
from repro.common.faults import fire

#: Bump when the ledger entry or state layout changes; older files are
#: discarded (the run restarts from record 0 — a cost, not a bug).
#: Format 2: the engine state is one pickle of its collaborators.
#: Format 3: that pickle names the trace and the oracle through
#: placeholder globals instead of persistent ids.
SHARD_FORMAT = 3

#: How many boundary-state files a ledger keeps: the newest (normal
#: resume) and its predecessor (fallback when the newest is mangled).
KEEP_STATES = 2

#: Per-shard progress callback: ``(shard_index, records_done,
#: records_total)``.  ``shard_index`` counts completed windows (1-based);
#: after a resume the first call reports the first *newly* completed
#: window, so callers can observe that resumption skipped work.
ShardCallback = Callable[[int, int, int], None]


class DrainRequested(RuntimeError):
    """A windowed run stopped at a boundary because drain was requested.

    The boundary state is already in the ledger when this raises: the
    run lost no work and a later call with the same identity resumes
    from exactly here.  The sweep service maps this onto a 503-flavoured
    stream/bulk error so clients know to retry after the restart.
    """

    def __init__(self, label: str, records_done: int, records_total: int) -> None:
        super().__init__(
            f"run {label} drained at record {records_done}/{records_total}; "
            f"shard ledger persisted, re-run to resume"
        )
        self.label = label
        self.records_done = records_done
        self.records_total = records_total


def shard_window() -> int:
    """Records per shard window (REPRO_SHARD_WINDOW, 0 = off)."""
    return env_number("REPRO_SHARD_WINDOW", 0, 0)


def shards_dir() -> Path:
    """Shard-ledger directory, beside the results cache."""
    return results_dir() / "shards"


def run_fingerprint(
    workload: str,
    scheme: str,
    prefetcher_key: str,
    records: int,
    machine_fingerprint: str,
    trace_digest: str,
    window: int,
) -> str:
    """Identity of one windowed run; any ingredient change invalidates.

    The trace digest ties a boundary state to the exact record stream
    it was captured from.  A boundary state is valid for any cadence,
    but tying it to the window keeps resume behaviour (which boundary
    you land on) reproducible across crashes.  The ``ckpt1`` prefix and
    the ``planned`` engine-format tag predate the ledger and stay
    literal, so ledgers already on disk still resume (ledgers of an
    older engine's ``live`` loop never match).
    """
    text = "|".join(
        (
            "ckpt1",
            workload,
            scheme,
            prefetcher_key,
            str(records),
            machine_fingerprint,
            trace_digest,
            f"planned+w{window}",
        )
    )
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class ShardLedger:
    """One run's shard ledger: boundary states plus an fsync'd index."""

    def __init__(self, directory: Path, stem: str, fingerprint: str, window: int) -> None:
        self.dir = directory
        self.stem = stem
        self.fingerprint = fingerprint
        self.window = window
        self.index = AppendLog(directory / f"{stem}.ledger")
        #: Last boundary recorded by *this* process (progress reporting).
        self.last_next_record = 0

    @property
    def ledger_path(self) -> Path:
        return self.index.path

    def _state_path(self, shard: int) -> Path:
        return self.dir / f"{self.stem}.s{shard}.state"

    # -- writing ------------------------------------------------------------

    def record(self, state: dict) -> int:
        """Persist one boundary; returns its shard index (1-based).

        Durability order matters: the state file is written, fsynced and
        renamed into place first, then the ledger line naming it (with
        its content sha1) is appended and fsynced — so a ledger entry
        never points at a state that might not be on disk.  The
        fault hook fires last, after the commit, so an injected ``kill``
        loses nothing and injected ``truncate``/``stale`` mangle exactly
        the file :meth:`latest` must fall back from.
        """
        next_record = int(state["next_record"])
        shard = next_record // self.window
        state_path = self._state_path(shard)
        blob = pickle.dumps(
            {
                "format": SHARD_FORMAT,
                "fingerprint": self.fingerprint,
                "state": state,
            }
        )
        write_atomic(state_path, blob, fsync=True)
        self.index.append(
            {
                "format": SHARD_FORMAT,
                "shard": shard,
                "next_record": next_record,
                "window": self.window,
                "sha1": hashlib.sha1(blob).hexdigest(),
                "counters": state.get("counters", {}),
            }
        )
        self.last_next_record = next_record
        self._prune(keep_from=shard - (KEEP_STATES - 1))
        fire("shard", str(state_path))
        return shard

    def _prune(self, keep_from: int) -> None:
        """Drop state files older than the fallback horizon."""
        for path in self.dir.glob(f"{self.stem}.s*.state"):
            try:
                shard = int(path.name[len(self.stem) + 2 : -len(".state")])
            except ValueError:
                continue
            if shard < keep_from:
                path.unlink(missing_ok=True)

    # -- reading ------------------------------------------------------------

    def entries(self) -> list:
        """Parsed index entries, oldest first."""
        return self.index.entries()

    def latest(self) -> Optional[dict]:
        """The newest boundary state that verifies, else None.

        Walks the ledger backwards: an entry whose window size differs,
        whose state file is missing, whose bytes no longer hash to the
        recorded sha1 (torn write, injected truncate/stale), or whose
        payload carries a foreign format/fingerprint is skipped and the
        walk falls back to the previous boundary.
        """
        for entry in reversed(self.entries()):
            if entry.get("format") != SHARD_FORMAT:
                continue
            if entry.get("window") != self.window:
                continue
            try:
                blob = self._state_path(int(entry["shard"])).read_bytes()
                if hashlib.sha1(blob).hexdigest() != entry["sha1"]:
                    continue
                payload = pickle.loads(blob)
                if (
                    payload["format"] != SHARD_FORMAT
                    or payload["fingerprint"] != self.fingerprint
                ):
                    continue
                return payload["state"]
            except Exception:
                continue
        return None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the ledger handle, keeping every file (drain path)."""
        self.index.close()

    def finish(self) -> None:
        """Close and delete everything: the run completed.

        The glob deliberately matches ``.state*``, not just
        ``.state``: a SIGKILLed worker can die between opening its
        ``.state.<random>.tmp`` and the rename, and that orphan is this
        run's debris to reap once the run has actually completed.
        """
        self.index.remove()
        for path in self.dir.glob(f"{self.stem}.s*.state*"):
            path.unlink(missing_ok=True)


def ledger_for(
    workload: str,
    scheme: str,
    prefetcher_key: str,
    records: int,
    machine_fingerprint: str,
    trace_digest: str,
    window: int,
) -> ShardLedger:
    """The shard ledger for one windowed run identity."""
    fingerprint = run_fingerprint(
        workload,
        scheme,
        prefetcher_key,
        records,
        machine_fingerprint,
        trace_digest,
        window,
    )
    return ShardLedger(
        shards_dir(), f"{workload}.{scheme}.{fingerprint}", fingerprint, window
    )


def run_windowed(
    sim: Callable[[Optional[dict], Callable[[dict], bool]], object],
    *,
    ledger: ShardLedger,
    total: int,
    label: str = "",
    on_shard: Optional[ShardCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> object:
    """Drive one engine run window-by-window through a shard ledger.

    ``sim(state, on_checkpoint)`` must call the engine with
    ``resume=state, checkpoint_every=ledger.window,
    on_checkpoint=on_checkpoint``
    and return its RunResult (or None when ``on_checkpoint`` stopped
    it).  Execution is one ``simulate`` call over the full mmap-backed
    trace — windows are checkpoint cadences, not re-invocations — which
    is what makes stitched results structurally identical to a single
    pass while shard N still starts from shard N-1's serialized state
    after any interruption.

    The run starts from :meth:`ShardLedger.latest`, so a killed process
    (or a drained service) continues from the last verified boundary.
    ``on_shard`` fires after each boundary commits; ``should_stop`` is
    polled right after it and, when true, the run stops with
    :class:`DrainRequested` — ledger already on disk.
    """
    state = ledger.latest()

    def on_checkpoint(s: dict) -> bool:
        shard = ledger.record(s)
        if on_shard is not None:
            on_shard(shard, int(s["next_record"]), total)
        return bool(should_stop is not None and should_stop())

    run = sim(state, on_checkpoint)
    if run is None:
        ledger.close()
        raise DrainRequested(label or ledger.stem, ledger.last_next_record, total)
    ledger.finish()
    return run
