"""Sweep runner with two-level result caching and parallel execution.

Figure 10 alone needs ~120 (workload, scheme) runs; most benches share
the LRU/OPT baselines.  The runner caches:

* **in process** — the full RunResult (including the live scheme object
  for figure-specific statistics);
* **on disk** — the scalar measurements as JSON under
  ``.cache/results``, keyed by (workload, scheme, prefetcher, records,
  machine fingerprint), so separate pytest invocations don't resimulate;
  and under ``.cache/results/by-trace``, keyed by (trace digest, scheme,
  prefetcher, machine fingerprint), so a length that cuts a trace
  another length has simulated is answered without simulating (see
  :func:`_run_pair`).

Set ``REPRO_NO_DISK_CACHE=1`` to disable the disk layer (tests do).

``sweep`` can fan uncached pairs out across worker processes
(``jobs=N`` or the ``REPRO_JOBS`` environment variable): a worker
answers a pair, writes both of its disk entries and returns the scalar
measurements, which the parent installs in the memory layer.  Whoever
answers a pair writes its entries, a pool worker or a serial runner
alike (see :func:`_run_pair`), so the parent of a parallel sweep writes
no result file.  Cache hits are resolved in the parent and never fork a
worker, so a warm sweep costs the same as before.

Workers live in a :class:`WorkerPool`: a per-call one that
``sweep_pairs`` forks for ``jobs=N``, or a resident one its caller owns
across sweeps (the sweep service keeps one for its lifetime).  Every
task carries its own (prefetcher, records, machine) configuration, so
one worker serves any configuration.

Each process keeps one table of resident :class:`SchemeContext`, by
(workload, records, machine), at most two of them: a pool worker's
tasks and every :class:`Runner` in a serial process draw on it (see
:func:`_resident_context`).  A context's trace (memory-mapped from its
``.mmap`` sidecar), lazily-built oracle and the plan and pre-pass the
trace holds are loaded at most once per residency, no matter how many
schemes a sweep pushes through that workload, and go with the trace
(only its walk memo keeps more).  Pending pairs are dispatched
workload-major (sorted by workload, then scheme) so consecutive tasks
land on whatever worker already has that workload resident, and a third
context evicts the one dispatch has passed.

Warming: the parent builds nothing; a pool builds a workload through
one *warm* task (:func:`_warm_worker`).  A worker builds (and
disk-caches) the workload's trace, saved with its walk's state, its
frontend plan and, when a pending pair consumes it, its replacement
pre-pass, and keeps the context resident; every other worker mmaps the
sidecars the warm wrote instead of redoing the work, or resumes the
saved walk for another length.  The first round of a sweep on a
per-call pool pipelines warms one workload ahead of that workload's
pairs: when ``warm(w_k)`` completes the parent submits ``warm(w_k+1)``
and then ``w_k``'s pairs, so one CPU builds the next workload while the
others simulate the current one; its warms drop the walk (the pool asks
for no other length).  A resident pool is warmed by its owner whenever a
sweep asks a workload for a length no warm has covered yet
(:meth:`WorkerPool.warm`): the warm loads the length when the trace
cache holds it, and otherwise walks and plans :data:`WARM_AHEAD` past it
and keeps the walk, so every length up to its longest trace is then cut,
never rebuilt.  The sweep service awaits those warms
before a sweep takes its sim slot, so the sweep itself submits its
pairs directly.  Sweeps
sharing a resident pool each keep only a few pairs on it at a time, so
a short sweep is not queued behind every pair of a long one.
A serial :class:`Runner` answers its pairs through the helper a pool
worker uses (:func:`_run_pair`), on a context from the same table, so
the serial and parallel paths build artifacts and reuse results through
one code path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common import faults
from repro.common.artifacts import disk_enabled
from repro.common.durable import results_dir, write_atomic
from repro.common.env import env_number
from repro.frontend.plan import cached_plan, plan_kind
from repro.harness.experiment import run_experiment, scaled_records
from repro.harness.schemes import SchemeContext
from repro.harness.shards import shard_window
from repro.mem.prepass import PREPASS_SCHEMES, cached_replacement_prepass
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult
from repro.workloads.profiles import forget_walk, get_workload


_SCALAR_FIELDS = (
    "workload",
    "scheme_name",
    "prefetcher_name",
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


def _default_jobs() -> int:
    return env_number("REPRO_JOBS", 1, 1)


def _sweep_timeout() -> float:
    """Progress deadline in seconds (REPRO_SWEEP_TIMEOUT, 0 = disabled).

    The parent declares the pool hung when *no* task on it, of any sweep
    sharing it, completes within this window — a per-progress deadline,
    not a per-job one, so slow workloads don't trip it as long as the
    pool keeps finishing work.
    """
    return env_number("REPRO_SWEEP_TIMEOUT", 0.0, 0.0, float)


def _sweep_retries() -> int:
    """Requeue budget per pair after a crash/stall (REPRO_SWEEP_RETRIES)."""
    return env_number("REPRO_SWEEP_RETRIES", 3, 0)


#: Callback invoked by :meth:`Runner.sweep_pairs` after each pair it
#: answered lands in the caches: ``(workload, scheme, result)``.  A
#: pair is answered by a simulation or by a trace-keyed entry (see
#: :func:`_run_pair`); records-keyed cache hits never fire it.
ResultCallback = Callable[[str, str, RunResult], None]

#: Per-shard progress callback for windowed (``REPRO_SHARD_WINDOW``)
#: runs: ``(workload, scheme, shard, records_done, records_total)``,
#: fired after each shard boundary commits to its ledger.
ShardCallback = Callable[[str, str, int, int, int], None]


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL a broken/hung pool's workers before abandoning it.

    Pool workers are non-daemonic: merely shutting down with
    ``wait=False`` would leave a wedged worker alive (and the
    interpreter waiting on it at exit).  Reaches into the private
    process table — there is no public enumeration — and tolerates
    workers that already died.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:
            pass


#: Every sweep pool forks: a worker inherits the parent's imports, where
#: a spawned or forkserver worker would pay ~0.3 s of them.
_FORK = multiprocessing.get_context("fork")

#: What each task carries: the sweep's ``(prefetcher, records, machine)``.
SweepConfig = Tuple[str, int, MachineParams]

#: This process's resident contexts by (workload, records, machine):
#: each trace/plan/pre-pass/oracle is deserialized at most once per
#: residency.  Pool workers and serial runners share it.
_CONTEXTS: "Dict[tuple, SchemeContext]" = {}

#: Resident contexts kept per process.  Dispatch is workload-major, and
#: the pipelined first round puts ``warm(w_k+1)`` and then ``w_k``'s
#: pairs on the FIFO queue when ``warm(w_k)`` completes, so a worker
#: that dequeues ``warm(w_k+2)`` or a ``w_k+1`` pair has passed every
#: ``w_k`` pair: it needs only its current workload and the next one.
#: A serial sweep runs its pairs in the same order.  A new context
#: therefore evicts the one dispatch has passed, not the least recently
#: used one, which would be the workload just warmed.  The bound also
#: keeps traces/oracles of long-finished workloads (or of a service's
#: earlier record counts) from pinning memory for the process's
#: lifetime.
_CONTEXT_CAP = 2

#: How far past the length asked a resident pool's warm walks and
#: plans a workload the trace cache lacks, as a fraction of it.  A plan
#: cannot be extended, only rebuilt whole, so a later request up to this
#: much longer is then cut from the warmed walk and plan instead of
#: warming (and planning) the workload again; the price is this
#: fraction more walk and plan per warm.  It pays off for traffic whose
#: lengths per workload stay within it of the first length asked, as
#: ``perfbench``'s ``service-mix`` cold requests do (20001-23999
#: records, so each workload's first warm covers all its later ones);
#: traffic spread wider warms again once per step.
WARM_AHEAD = 0.25

#: Sweep-service simulation threads look contexts up concurrently.
#: Held only for the table's dict operations, never across a build.
_contexts_lock = threading.Lock()


def _new_contexts_lock() -> None:
    # A fork while another thread holds the lock would hand the child a
    # lock nobody will release.
    global _contexts_lock
    _contexts_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_contexts_lock)


def _worker_init() -> None:
    """Start a forked worker with no contexts and its own fault counters.

    Fault arrival counters are per-process; a forked worker must count
    its own arrivals, not inherit the parent's.
    """
    _CONTEXTS.clear()
    faults.reset()


def _resident_context(
    workload: str, records: int, machine: MachineParams
) -> SchemeContext:
    """This process's resident context for one workload configuration.

    Built at most once per residency: beyond :data:`_CONTEXT_CAP` a new
    context evicts the one earliest in workload-major dispatch order,
    which a workload-major sweep has moved past, so the
    one-deserialization-per-process property holds for such sweeps while
    memory stays bounded for arbitrary ones.  Eviction is safe because
    everything a context holds is rebuilt bit-identical from the
    trace/plan disk caches (``tests/test_sweep_bugs.py``), so a
    long-lived process pays a reload, never a wrong answer.  Threads
    racing to build one context settle on the first one stored.
    """
    key = (workload, records, machine)
    with _contexts_lock:
        ctx = _CONTEXTS.get(key)
    if ctx is not None:
        return ctx
    trace = get_workload(workload).trace(records=records)
    built = SchemeContext(trace=trace, machine=machine)
    with _contexts_lock:
        ctx = _CONTEXTS.setdefault(key, built)
        while len(_CONTEXTS) > _CONTEXT_CAP:
            # Pairs go out sorted by workload: the smallest (workload,
            # records) key is the one dispatch has passed.
            passed = min((k for k in _CONTEXTS if k != key), key=lambda k: k[:2])
            del _CONTEXTS[passed]
    return ctx


def _warm_artifacts(
    ctx: SchemeContext, prefetcher: str, machine: MachineParams, prepass: bool
) -> None:
    """Build (and disk-cache) the artifacts ``ctx``'s pairs share.

    The frontend plan, so every scheme replays one branch-stack/FDP
    pass (entangling sweeps warm the ``none`` plan their runs take);
    and with ``prepass`` the replacement pre-pass the flat GHRP/Harmony
    twins consume.  ``ctx.trace`` keeps both.
    """
    cached_plan(ctx.trace, machine, plan_kind(prefetcher))
    if prepass:
        cached_replacement_prepass(ctx.trace)


def _warm_worker(
    config: SweepConfig,
    workload: str,
    prepass: bool,
    ahead: Optional[int] = None,
) -> Tuple[int, int]:
    """Warm ``workload`` in a pool worker: the one way a pool builds it.

    Builds the trace and the shared artifacts once, writes them to the
    disk caches for the other workers to mmap (the trace with its walk's
    state, for them to resume), and keeps the context resident for the
    pairs this worker picks up next.  A per-call pool asks for one
    length per workload, so its warm drops the walk the trace was cut
    from (program, longest plan, record stream): the context keeps the
    trace and the artifacts it holds.  A resident pool's warm (see
    :meth:`WorkerPool.warm`) keeps the walk and, unless the length asked
    is there without walking (in the trace cache, or cut from this
    worker's walk), first walks and plans the workload to ``ahead``
    records, saving both: every length up to ``ahead`` is then cut from
    that walk and plan, in this worker or in one that resumes the saved
    walk.  Returns the shortest and longest length it made that cheap.
    Deliberately does not fire the ``worker`` fault site: its ordinals
    count pairs.
    """
    prefetcher, records, machine = config
    profile = get_workload(workload)
    covered = (records, records)
    if ahead is not None and not profile.has_trace(records):
        longest = profile.trace(records=ahead)
        # With its record stream, which the cut plans slice.
        plan = cached_plan(longest, machine, plan_kind(prefetcher))
        plan.record_stream(longest, machine.backend_ipc)
        covered = (0, len(longest))
    ctx = _resident_context(workload, records, machine)
    _warm_artifacts(ctx, prefetcher, machine, prepass)
    if ahead is None:
        forget_walk(profile)
    return covered


def _scalars(run: RunResult) -> Dict[str, object]:
    return {k: getattr(run, k) for k in _SCALAR_FIELDS}


def _read_entry(
    path: Path, workload: str, scheme: str, prefetcher: str
) -> Tuple[Optional[RunResult], int]:
    """A result-cache entry for one pair, and how many it rejected.

    The one loader for both kinds of entry, records-keyed and
    trace-keyed.  A missing or unreadable file is a plain miss (``(None,
    0)``).  An entry that does not parse, lacks a scalar field or names
    another (workload, scheme, prefetcher) is unlinked and counted:
    ``(None, 1)``.
    """
    try:
        payload = json.loads(path.read_text())
        result = RunResult(**{k: payload[k] for k in _SCALAR_FIELDS})
    except FileNotFoundError:
        # Plain cache miss (or another worker won an unlink race).
        return None, 0
    except OSError:
        # Concurrent sweep workers can catch an entry mid-write or
        # mid-unlink; treat any unreadable file as a miss without
        # destroying what the writer may still be producing.
        return None, 0
    except (ValueError, KeyError, TypeError):
        result = None
    if result is not None and (
        result.workload, result.scheme_name, result.prefetcher_name
    ) == (workload, scheme, prefetcher):
        return result, 0
    path.unlink(missing_ok=True)
    return None, 1


def _entry_path(workload: str, scheme: str, config: SweepConfig) -> Path:
    """Where the records-keyed result of one pair at ``config`` lives."""
    prefetcher, records, machine = config
    name = (
        f"{workload}.{scheme}.{prefetcher}"
        f".r{records}.{machine.fingerprint()}.json"
    )
    return results_dir() / name


def _trace_entry_path(
    digest: str, scheme: str, prefetcher: str, machine: MachineParams
) -> Path:
    """Where the result of ``scheme`` on the trace of ``digest`` lives."""
    name = f"{digest}.{scheme}.{prefetcher}.{machine.fingerprint()}.json"
    return results_dir() / "by-trace" / name


def _write_entry(path: Path, run: RunResult, fsync: bool = False) -> None:
    """Write ``run``'s scalars as the result entry at ``path``.

    Write-then-rename, so concurrent readers never observe a partial
    entry (and never mistake one for corruption); ``fsync`` flushes it
    before the rename, for the records-keyed entry that is the sweep's
    durable record of a finished pair.
    """
    write_atomic(path, json.dumps(_scalars(run)).encode(), fsync=fsync)


def _run_pair(
    workload: str,
    scheme: str,
    config: SweepConfig,
    disk: bool,
    **hooks,
) -> Tuple[RunResult, bool, int]:
    """Answer one pair no records-keyed entry holds: from its trace's
    result, or by simulating it.

    The one way a pair is answered, in a pool worker
    (:func:`_sweep_worker`) and in a serial :meth:`Runner._run`.  With
    ``disk``, once the trace is cut and before its plan is built, the
    pair's *trace-keyed* entry is read: (trace digest, scheme,
    prefetcher, machine fingerprint).  The key is exact, since a run
    reads only its trace (its plan, warmup split, oracle and pre-pass
    all derive from it), its scheme, its prefetcher and its machine; so
    every length that cuts the same trace from the walk shares it.  A
    hit returns the stored scalars.  A fresh result writes the entry
    without fsync (a torn trace-keyed entry is rejected as a miss).
    Either way the pair's records-keyed entry is then written and
    fsync'd before this returns: it is the sweep's durable record that
    the pair is done, so it exists before the caller installs the
    result or reports it.  ``hooks`` go to :func:`run_experiment`.
    Returns the result, whether a trace-keyed entry answered it, and how
    many entries the read rejected.
    """
    prefetcher, records, machine = config
    ctx = _resident_context(workload, records, machine)
    run, rejects = None, 0
    if disk:
        path = _trace_entry_path(ctx.trace.digest, scheme, prefetcher, machine)
        run, rejects = _read_entry(path, workload, scheme, prefetcher)
    reused = run is not None
    if not reused:
        run = run_experiment(
            workload,
            scheme,
            prefetcher=prefetcher,
            records=records,
            machine=machine,
            context=ctx,
            **hooks,
        ).run
        if disk:
            _write_entry(path, run)
    if disk:
        _write_entry(_entry_path(workload, scheme, config), run, fsync=True)
    return run, reused, rejects


def _sweep_worker(
    config: SweepConfig, pair: Tuple[str, str], disk: bool = False
) -> Tuple[str, str, Dict[str, object], bool, int]:
    """Answer one (workload, scheme) pair in a resident worker process.

    The parent already filtered records-keyed cache hits; ``disk`` is
    its ``Runner.use_disk_cache``, which turns the disk entries of
    :func:`_run_pair` on: this worker reads the trace-keyed one and
    writes both.  Returns only the scalar measurements —
    live scheme objects don't cross the process boundary — with whether
    a trace-keyed entry answered the pair and how many entries it
    rejected.  The context, with its oracle and the plan and pre-pass
    its trace holds, persists in the worker across pairs.
    """
    workload, scheme = pair
    faults.fire("worker")
    run, reused, rejects = _run_pair(workload, scheme, config, disk)
    return workload, scheme, _scalars(run), reused, rejects


class WorkerPool:
    """Forked sweep workers, owned across sweeps, replaced when broken.

    :meth:`Runner.sweep_pairs` runs its pairs in a pool: a per-call one
    it forks itself for ``jobs > 1``, or a *resident* one its caller
    passes in and keeps (the sweep service holds one for its lifetime).
    A pool forks every worker when it is built, so its owner decides
    when the fork happens.  Workers keep the environment and module
    state they were forked with.

    Every sweep submits through :meth:`submit`, which keeps one progress
    clock for the whole pool: :meth:`stalled_for` is the time since any
    task on it last finished (or since it was forked, or went from idle
    to busy).  The supervision loop (:meth:`Runner._sweep_parallel`)
    and the sweep service's wait on a :meth:`warm` declare the pool hung
    on that clock (:meth:`progress_deadline`), not on their own tasks'
    completions, so a sweep queued behind a sibling's long grid does not
    mistake a busy pool for a hung one.  It kills and replaces a broken
    or hung pool through :meth:`replace`; sweeps that share a pool and
    all see it break replace it once.
    """

    def __init__(self, jobs: int) -> None:
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        self.jobs = jobs
        #: Broken or hung executors killed and forked anew.
        self.replacements = 0
        self._lock = threading.Lock()
        self._closed = False
        #: :meth:`warm` tasks by (workload, prefetcher, machine).
        self._warms: Dict[tuple, List[Future]] = {}
        self._clock = threading.Lock()
        #: Tasks submitted through :meth:`submit` and not yet finished.
        self.busy = 0
        self._progress = time.monotonic()
        self.executor = self._fork()

    def _fork(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=_FORK, initializer=_worker_init
        )
        # A fork pool starts all its workers on its first task.
        executor.submit(int).result()
        with self._clock:
            self._progress = time.monotonic()
        return executor

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, executor: ProcessPoolExecutor, fn, *args) -> Future:
        """Submit ``fn(*args)`` to ``executor`` on the pool's clock.

        ``executor`` is the one the caller's round started on; it raises
        ``RuntimeError`` once a sibling sweep has replaced it.
        """
        future = executor.submit(fn, *args)
        with self._clock:
            if not self.busy:
                self._progress = time.monotonic()
            self.busy += 1
        future.add_done_callback(self._finished)
        return future

    def _finished(self, future: Future) -> None:
        with self._clock:
            self.busy -= 1
            if not future.cancelled():
                self._progress = time.monotonic()

    def warm(
        self, config: SweepConfig, workload: str, prepass: bool
    ) -> Future:
        """What a caller about to run ``workload``'s pairs at ``config``
        waits on: the pool's warm (:func:`_warm_worker`), one task at a
        time per workload and frontend config.

        A done warm covers the lengths it made cheap: the length it was
        asked for when the trace cache held it, else every length up to
        its longest trace, whose walk state and plan the caches hold, so
        every worker cuts that length from the walk it holds or resumes.
        Such a warm is returned done.  A warm in flight is returned as
        is; the caller asks again once it is done, so two lengths of one
        workload are never built side by side.  Else a new warm goes
        out, walking and planning :data:`WARM_AHEAD` past ``config``'s
        records unless the trace cache holds them.  A failed warm is
        forgotten, as is every warm when the pool is replaced.  Raises
        as :meth:`submit` does when the executor is broken or shut down.
        """
        prefetcher, records, machine = config
        key = (workload, prefetcher, machine)
        with self._lock:
            # Each walked warm reaches past every earlier one, so a
            # workload keeps few: one per stored length asked, and one
            # per WARM_AHEAD step of its longest length.
            warms = self._warms[key] = [
                future
                for future in self._warms.get(key, ())
                if not future.done()
                or (not future.cancelled() and future.exception() is None)
            ]
            for future in warms:
                if not future.done():
                    return future
                shortest, longest = future.result()
                if shortest <= records <= longest:
                    return future
            ahead = records + int(records * WARM_AHEAD)
            future = self.submit(
                self.executor, _warm_worker, config, workload, prepass, ahead
            )
            warms.append(future)
        return future

    def stalled_for(self) -> float:
        """Seconds since the pool last made progress; 0 while idle."""
        with self._clock:
            return time.monotonic() - self._progress if self.busy else 0.0

    def progress_deadline(self) -> Optional[float]:
        """Seconds left before the pool counts as hung, 0 once it does;
        None without a deadline (``REPRO_SWEEP_TIMEOUT`` unset or 0).
        Whoever waits on the pool and sees 0 replaces it."""
        timeout = _sweep_timeout()
        return max(0.0, timeout - self.stalled_for()) if timeout > 0 else None

    def replace(self, broken: ProcessPoolExecutor) -> bool:
        """Kill ``broken`` and fork its successor, unless that is done.

        Returns whether this call replaced it: False when a sweep
        sharing the pool already has, or when the pool is closed (a
        closed pool forks no successor).  ``broken`` is shut down
        without cancelling its queued tasks: its manager thread then
        sees the dead workers and fails every unfinished task with
        ``BrokenProcessPool``, which wakes each sweep waiting on one.
        A cancelled future would not wake ``concurrent.futures.wait``.
        """
        with self._lock:
            if broken is not self.executor or self._closed:
                return False
            _kill_pool_workers(broken)
            broken.shutdown(wait=False)
            self._warms.clear()  # they went with the killed workers
            self.executor = self._fork()
            self.replacements += 1
            return True

    def close(self, kill: bool = False) -> None:
        """Stop the workers: wait for them, or SIGKILL them with ``kill``.

        Nothing is cancelled: a waiting close lets queued tasks finish,
        and a kill fails them with ``BrokenProcessPool`` (see
        :meth:`replace`), so no sweep is left waiting on either.
        """
        with self._lock:
            self._closed = True
        if kill:
            _kill_pool_workers(self.executor)
        self.executor.shutdown(wait=not kill)


class Runner:
    """Caching sweep driver shared by benches and examples.

    One Runner is one sweep configuration — a fixed (``records``,
    ``prefetcher``, ``machine``) triple; workloads and schemes vary per
    call.  :meth:`run` answers single pairs through both cache layers,
    :meth:`run_live` bypasses the disk layer when the caller needs the
    live scheme object's internals (figure-specific statistics), and
    :meth:`sweep` runs a cross product, optionally fanned out across
    resident worker processes.
    """

    def __init__(
        self,
        records: Optional[int] = None,
        prefetcher: str = "fdp",
        machine: Optional[MachineParams] = None,
        use_disk_cache: Optional[bool] = None,
    ) -> None:
        self.records = scaled_records(records)
        self.prefetcher = prefetcher
        self.machine = machine or DEFAULT_MACHINE
        self.use_disk_cache = disk_enabled(use_disk_cache)
        # sweep()/run() are re-entrant (the sweep service issues them
        # from several executor threads against one shared Runner):
        # _memory writes are atomic dict ops.
        self._memory: Dict[Tuple[str, str, str], RunResult] = {}
        #: Disk entries, records- or trace-keyed, discarded as corrupt
        #: or naming another pair (:func:`_read_entry`) over this
        #: Runner's lifetime, in this process or its pool's workers
        #: (tests assert on it; a nonzero value after a clean run means
        #: something is mangling the results cache).
        self.disk_cache_rejects = 0
        #: Pairs this Runner found in no records-keyed entry that a
        #: trace-keyed entry answered (see :func:`_run_pair`): another
        #: length had already simulated the trace they cut.
        self.reused: Set[Tuple[str, str]] = set()

    # -- caching ------------------------------------------------------------

    def _key(self, workload: str, scheme: str) -> Tuple[str, str, str]:
        return (workload, scheme, self.prefetcher)

    def _disk_path(self, workload: str, scheme: str) -> Path:
        return _entry_path(
            workload, scheme, (self.prefetcher, self.records, self.machine)
        )

    def _load_disk(self, workload: str, scheme: str) -> Optional[RunResult]:
        result, rejects = _read_entry(
            self._disk_path(workload, scheme), workload, scheme, self.prefetcher
        )
        self.disk_cache_rejects += rejects
        return result

    def _cached(
        self, workload: str, scheme: str, *, allow_disk: bool = True
    ) -> Optional[RunResult]:
        """Consult both cache layers without simulating."""
        cached = self._memory.get(self._key(workload, scheme))
        if cached is not None:
            return cached
        if allow_disk and self.use_disk_cache:
            loaded = self._load_disk(workload, scheme)
            if loaded is not None:
                self._memory[self._key(workload, scheme)] = loaded
                return loaded
        return None

    def cached(self, workload: str, scheme: str) -> Optional[RunResult]:
        """The cached result for one pair, or None — never simulates.

        The sweep service's admission check: a pair with a warm entry
        (memory or disk) is served straight from here; only misses are
        admitted into the simulation queue.
        """
        return self._cached(workload, scheme)

    def _admit(
        self, workload: str, scheme: str, answer: Tuple[RunResult, bool, int]
    ) -> RunResult:
        """Install the result :func:`_run_pair` answered (and wrote to
        disk) in the memory layer, and count how it was answered."""
        result, reused, rejects = answer
        self.disk_cache_rejects += rejects
        if reused:
            self.reused.add((workload, scheme))
        self._memory[self._key(workload, scheme)] = result
        return result

    def context_for(self, workload: str) -> SchemeContext:
        """This process's resident context for ``workload`` (see
        :func:`_resident_context`), its frontend plan warmed.

        Warming goes through :func:`_warm_artifacts` — the helper
        parallel sweeps' warm tasks use — so every scheme simulated
        against this workload shares one frontend plan instead of
        redoing it per pair.
        """
        ctx = _resident_context(workload, self.records, self.machine)
        _warm_artifacts(ctx, self.prefetcher, self.machine, prepass=False)
        return ctx

    def warm(
        self, pool: WorkerPool, pairs: Iterable[Tuple[str, str]]
    ) -> List[Future]:
        """``pool``'s warm of each workload of ``pairs``, at this
        runner's configuration (see :meth:`WorkerPool.warm`), building
        the replacement pre-pass where a pair consumes it."""
        pairs = list(pairs)
        config: SweepConfig = (self.prefetcher, self.records, self.machine)
        prepass = {w for w, s in pairs if s in PREPASS_SCHEMES}
        return [
            pool.warm(config, workload, workload in prepass)
            for workload in dict.fromkeys(w for w, _ in pairs)
        ]

    # -- running ------------------------------------------------------------

    def _run(
        self,
        workload: str,
        scheme: str,
        *,
        allow_disk: bool,
        on_shard: Optional[ShardCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Run one pair, consulting the caches first.

        ``allow_disk=False`` neither reads nor writes the disk layer and
        rejects memory entries without a live scheme object (disk-loaded
        scalars), for callers that need scheme internals.

        ``on_shard``/``should_stop`` apply only when sharded execution
        is active (``REPRO_SHARD_WINDOW``, see
        :mod:`repro.harness.shards`): per-boundary progress callbacks
        (called as ``(workload, scheme, shard, done, total)``) and the
        graceful-drain poll.  A cache hit never fires either.
        """
        cached = self._cached(workload, scheme, allow_disk=allow_disk)
        if cached is not None and (allow_disk or cached.scheme is not None):
            return cached
        answer = _run_pair(
            workload,
            scheme,
            (self.prefetcher, self.records, self.machine),
            allow_disk and self.use_disk_cache,
            on_shard=(
                None
                if on_shard is None
                else lambda shard, done, total: on_shard(
                    workload, scheme, shard, done, total
                )
            ),
            should_stop=should_stop,
        )
        return self._admit(workload, scheme, answer)

    def run(
        self,
        workload: str,
        scheme: str,
        *,
        on_shard: Optional[ShardCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Run (or fetch from cache) one workload/scheme pair."""
        return self._run(
            workload,
            scheme,
            allow_disk=True,
            on_shard=on_shard,
            should_stop=should_stop,
        )

    def run_live(self, workload: str, scheme: str) -> RunResult:
        """Run without touching the disk cache (when scheme internals are needed)."""
        return self._run(workload, scheme, allow_disk=False)

    # -- derived metrics ------------------------------------------------------

    def speedup(self, workload: str, scheme: str, baseline: str = "lru") -> float:
        return self.run(workload, scheme).speedup_over(self.run(workload, baseline))

    def mpki_reduction(
        self, workload: str, scheme: str, baseline: str = "lru"
    ) -> float:
        return self.run(workload, scheme).mpki_reduction_over(
            self.run(workload, baseline)
        )

    def sweep(
        self,
        workloads: Iterable[str],
        schemes: Iterable[str],
        jobs: Optional[int] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run the full cross product; returns {(workload, scheme): result}.

        A convenience wrapper over :meth:`sweep_pairs` for the common
        grid shape; see there for the execution/crash-safety contract.
        """
        workloads = list(workloads)
        schemes = list(schemes)
        pairs = [(w, s) for w in workloads for s in schemes]
        return self.sweep_pairs(pairs, jobs=jobs, on_result=on_result)

    def sweep_pairs(
        self,
        pairs: Iterable[Tuple[str, str]],
        jobs: Optional[int] = None,
        on_result: Optional[ResultCallback] = None,
        on_shard: Optional[ShardCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run an explicit pair list; returns {(workload, scheme): result}.

        Unlike :meth:`sweep` the pairs need not form a cross product —
        the sweep service admits exactly the pairs no other request is
        already simulating, which is rarely a full grid.

        ``pool`` runs every uncached pair in a resident
        :class:`WorkerPool` the caller owns, however few there are;
        ``jobs`` is then unused.  A caller that wants the pairs'
        workloads walked and planned once for the pool warms them first
        (:meth:`warm`); otherwise each worker builds what it lacks.
        Without one, ``jobs`` > 1 forks a per-call pool of that many
        workers (default: the ``REPRO_JOBS`` environment variable,
        falling back to serial) for two or more uncached pairs.  Each
        worker keeps a per-workload
        :class:`SchemeContext` alive across pairs, and pending pairs are
        dispatched workload-major so consecutive tasks reuse whatever a
        worker already has resident.  The parent builds no artifact: on
        a per-call pool each workload's trace, plan and pre-pass are
        warmed by a task in the pool, submitted one workload ahead of
        that workload's pairs (see :meth:`_sweep_parallel`), so the
        first results arrive after one workload's warm rather than
        after all of them.  Cache hits never reach a worker.  Results
        are identical to the serial sweep: the engine is deterministic
        and workers only return scalar measurements, which the parent
        installs in the memory layer (the worker wrote the disk layer).

        ``on_result`` is called in the sweeping thread after each pair
        the sweep answered (simulated, or from the trace-keyed entry of
        another length that cuts the same trace) has been admitted to
        the caches — the sweep service uses it to stream per-pair
        progress and resolve in-flight dedup futures; records-keyed
        cache hits never fire it.

        Crash safety (``tests/test_fault_injection.py`` pins recovered
        sweeps scalar-identical to undisturbed ones): dead workers (the
        pool breaks) and hung pools (no task on the pool completes within
        ``REPRO_SWEEP_TIMEOUT`` seconds) are killed and replaced through
        the pool's owner, and their unfinished pairs requeued with
        exponential backoff, each pair at most ``REPRO_SWEEP_RETRIES``
        times — but a pair that fails with a *deterministic* error
        (anything other than a dead pool or an injected fault) raises
        immediately, with the worker's original exception chained as
        ``__cause__``.  Every finished pair is in the result cache
        before ``on_result`` fires: the process that answered it, pool
        worker or this one, wrote and fsync'd its records-keyed entry
        before handing the result back (see :func:`_run_pair`).  So
        recovering from a crashed sweep is rerunning it: finished pairs
        are served from disk and only the rest are simulated — with
        ``REPRO_SHARD_WINDOW``, a pair that died mid-run restarts from
        its last shard-ledger boundary.  Without the disk cache nothing
        survives the process.

        With sharded execution on (``REPRO_SHARD_WINDOW``), a sweep
        given a resident ``pool`` runs serially in this thread instead,
        because the two hooks below are in-process: ``on_shard``
        (per-boundary progress, ``(workload, scheme, shard, done,
        total)``) and ``should_stop`` (the graceful-drain poll: when it
        reports true at a boundary, the sweep stops with
        :class:`~repro.harness.shards.DrainRequested`, the pair's shard
        ledger persisted, so a re-sweep continues from exactly there).
        A per-call pool ignores both hooks — shards there still ledger
        and resume via the environment, they just don't report into
        this process.
        """
        pairs = list(pairs)
        if jobs is None:
            jobs = _default_jobs()
        elif jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")

        pending = sorted(
            (w, s)
            for w, s in dict.fromkeys(pairs)  # dedupe repeated inputs
            if self._cached(w, s) is None
        )
        # Workload-major dispatch order (sorted by workload, then
        # scheme): consecutive tasks share a workload, so resident
        # workers keep reusing the trace/plan/oracle they already hold
        # instead of faulting a new workload in per pair.
        if pool is not None and pending and shard_window() <= 0:
            self._sweep_parallel(pending, pool, on_result, shared=True)
        elif pool is None and jobs > 1 and len(pending) > 1:
            owned = WorkerPool(min(jobs, len(pending)))
            try:
                self._sweep_parallel(pending, owned, on_result, shared=False)
            except BaseException:
                owned.close(kill=True)  # fail fast: don't drain it
                raise
            owned.close()
        else:
            for workload, scheme in pending:
                result = self.run(
                    workload, scheme, on_shard=on_shard, should_stop=should_stop
                )
                if on_result is not None:
                    on_result(workload, scheme, result)
        return {(w, s): self.run(w, s) for w, s in pairs}

    def _sweep_parallel(
        self,
        pending: List[Tuple[str, str]],
        pool: WorkerPool,
        on_result: Optional[ResultCallback],
        shared: bool,
    ) -> None:
        """Supervised execution of ``pending`` pairs in ``pool``.

        A per-call pool (``shared`` false) runs this sweep alone.  Its
        first round pipelines warm tasks (:func:`_warm_worker`) one
        workload ahead of the pairs: it submits ``warm(w_1)``, and when
        ``warm(w_k)`` completes it submits ``warm(w_k+1)`` and then
        ``w_k``'s pairs, still workload-major.  A resident pool
        (``shared``) serves concurrent sweeps: its owner warms their
        workloads beforehand (:meth:`WorkerPool.warm`), so they submit
        pairs directly, and each keeps at most ``pool.jobs + 1`` pairs
        on the pool at a time, feeding the next as one finishes.  The
        executor runs tasks first-in, first-out,
        so that bound lets a short sweep's pairs start after at most a
        few of a long sweep's, not after all of them.  Every round after
        the first submits directly too; a worker rebuilds whatever
        artifact is missing on its own (concurrent builds of one entry
        are safe: every writer commits through its own temp file).
        Completions are collected as they arrive.  Three *transient*
        failure classes are retried:

        * an *injected fault* (:class:`~repro.common.faults.FaultInjected`
          — the crash-safety harness standing in for a flaky job) —
          requeue just that pair, or for a warm task that workload's
          pairs (the next warm still goes out);
        * a *dead worker* (``BrokenProcessPool``: someone was killed,
          e.g. OOM, or a sweep sharing the pool replaced it) — the
          executor is unusable: it is replaced through ``pool`` and all
          unfinished pairs requeue;
        * a *hung pool* (no task of *any* sweep on the pool finished
          within the ``REPRO_SWEEP_TIMEOUT`` progress deadline, see
          :meth:`WorkerPool.stalled_for`) — the workers are SIGKILLed
          (they are non-daemonic and would otherwise keep the
          interpreter alive) and replaced the same way.

        Any *other* exception out of a worker is a deterministic
        simulation error — the engine is deterministic, so re-running
        the pair would reproduce the same crash ``REPRO_SWEEP_RETRIES``
        times and then lose the traceback.  Those fail fast: this
        sweep's queued tasks are cancelled (:meth:`sweep_pairs` kills a
        per-call pool; a resident one keeps serving other sweeps) and a
        ``RuntimeError`` naming the pair (or the workload, for a warm
        task) raises with the worker's original exception chained as
        ``__cause__``.

        Requeued pairs retry after exponential backoff; a pair that
        fails more than ``REPRO_SWEEP_RETRIES`` times raises (chaining
        the last exception seen for that pair, if any), so even an
        injected crash cannot loop forever.  Pairs lost with an
        executor a sibling sweep replaced are requeued without using up
        an attempt: that sweep's pairs pay for the replacement.  A pool
        closed under the sweep fails it at once.
        """
        retries = _sweep_retries()
        config: SweepConfig = (self.prefetcher, self.records, self.machine)
        prepass_workloads = {w for w, s in pending if s in PREPASS_SCHEMES}
        cap = pool.jobs + 1 if shared else len(pending)
        attempts: Dict[Tuple[str, str], int] = {}
        last_exc: Dict[Tuple[str, str], BaseException] = {}
        queue = list(pending)
        round_number = 0
        while queue:
            round_number += 1
            if round_number > 1:
                time.sleep(min(0.1 * 2 ** (round_number - 2), 2.0))
            executor = pool.executor
            futures: Dict[Future, Tuple[str, str]] = {}
            warms: Dict[Future, str] = {}
            remaining: Set[Future] = set()
            broken = False

            def submit(fn, *args) -> Optional[Future]:
                """Submit to the executor; None once it is broken or gone."""
                nonlocal broken
                if broken:
                    return None
                try:
                    future = pool.submit(executor, fn, config, *args)
                except (BrokenProcessPool, RuntimeError):
                    # RuntimeError: a sweep sharing the pool has already
                    # shut this executor down to replace it.
                    broken = True
                    return None
                remaining.add(future)
                return future

            def warm_next() -> None:
                workload = next(to_warm, None)
                if workload is not None:
                    prepass = workload in prepass_workloads
                    future = submit(_warm_worker, workload, prepass)
                    if future is not None:
                        warms[future] = workload

            def feed() -> None:
                """Submit released pairs, in order, up to the cap."""
                while ready and len(remaining) - len(warms) < cap:
                    future = submit(_sweep_worker, ready[0], self.use_disk_cache)
                    if future is None:
                        return
                    futures[future] = ready.pop(0)

            # Pairs held back until their workload's warm completes, in
            # workload-major order, and released pairs waiting for the
            # cap.  Only a per-call pool's first round warms; every
            # other round releases all its pairs at once.
            held: Dict[str, List[Tuple[str, str]]] = {}
            for pair in queue:
                held.setdefault(pair[0], []).append(pair)
            ready: List[Tuple[str, str]] = []
            if round_number == 1 and not shared:
                to_warm = iter(list(held))
                warm_next()
            else:
                ready = [pair for pairs in held.values() for pair in pairs]
                held = {}
                feed()
            queue = []
            failed: List[Tuple[str, str]] = []  # charged an attempt
            broke: List[Tuple[str, str]] = []  # lost with the executor
            fatal: Optional[Tuple[str, BaseException]] = None
            try:
                while remaining and not broken:
                    done, _ = wait(
                        remaining,
                        timeout=pool.progress_deadline(),
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        if pool.progress_deadline() == 0:
                            broken = True  # progress deadline exceeded
                            break
                        continue  # the pool progressed on other work
                    remaining.difference_update(done)
                    for future in done:
                        if future in warms:
                            workload = warms.pop(future)
                            try:
                                future.result()
                            except BrokenProcessPool as exc:
                                broken = True  # held pairs requeue below
                                for pair in held[workload]:
                                    last_exc[pair] = exc
                            except faults.FaultInjected as exc:
                                for pair in held.pop(workload):
                                    last_exc[pair] = exc
                                    failed.append(pair)
                                warm_next()
                            except Exception as exc:
                                fatal = (f"warm-up of workload {workload!r}", exc)
                            else:
                                warm_next()
                                ready.extend(held.pop(workload))
                        else:
                            pair = futures[future]
                            try:
                                (
                                    workload, scheme, scalars, reused, rejects
                                ) = future.result()
                            except BrokenProcessPool as exc:
                                broken = True
                                last_exc[pair] = exc
                                broke.append(pair)
                            except faults.FaultInjected as exc:
                                last_exc[pair] = exc
                                failed.append(pair)
                            except Exception as exc:
                                fatal = (f"pair {pair}", exc)
                            else:
                                result = self._admit(
                                    workload,
                                    scheme,
                                    (RunResult(**scalars), reused, rejects),
                                )
                                if on_result is not None:
                                    on_result(workload, scheme, result)
                        if fatal is not None:
                            break
                    if fatal is not None:
                        break
                    feed()
            finally:
                if broken:
                    charged = pool.replace(executor)
                else:
                    for future in remaining:
                        future.cancel()
            if fatal is not None:
                what, exc = fatal
                raise RuntimeError(
                    f"sweep {what} failed deterministically "
                    f"({type(exc).__name__}); not retrying"
                ) from exc
            # Pairs the executor took down with it, and those it never
            # got to run.
            lost = broke + [futures[f] for f in remaining if f in futures]
            lost += ready + [pair for pairs in held.values() for pair in pairs]
            if broken and not charged:
                if pool.closed:
                    raise RuntimeError(
                        f"worker pool closed with {len(lost) + len(failed)} "
                        "sweep pairs unfinished"
                    )
                queue = lost  # a sibling sweep replaced the executor
            else:
                failed += lost
            for pair in failed:
                count = attempts.get(pair, 0) + 1
                attempts[pair] = count
                if count > retries:
                    raise RuntimeError(
                        f"sweep pair {pair} failed {count} times "
                        f"(REPRO_SWEEP_RETRIES={retries}); giving up"
                    ) from last_exc.get(pair)
            queue = sorted(set(failed + queue))
