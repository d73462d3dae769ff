"""Sweep runner with two-level result caching and parallel execution.

Figure 10 alone needs ~120 (workload, scheme) runs; most benches share
the LRU/OPT baselines.  The runner caches:

* **in process** — the full RunResult (including the live scheme object
  for figure-specific statistics);
* **on disk** — the scalar measurements as JSON under
  ``.cache/results``, keyed by (workload, scheme, prefetcher, records,
  machine fingerprint), so separate pytest invocations don't resimulate.

Set ``REPRO_NO_DISK_CACHE=1`` to disable the disk layer (tests do).

``sweep`` can fan uncached pairs out across worker processes
(``jobs=N`` or the ``REPRO_JOBS`` environment variable): workers
simulate and return the scalar measurements, the parent stores them in
both cache layers.  Cache hits are resolved in the parent and never
fork a worker, so a warm sweep costs the same as before.

Workers are *resident*: a pool initializer installs the sweep's
(prefetcher, records, machine) configuration once per process, and each
worker keeps one :class:`SchemeContext` per workload — the trace
(memory-mapped from its ``.mmap`` sidecar), the lazily-built oracle and
the memoised frontend plan are loaded at most once per worker, no
matter how many schemes the sweep pushes through that workload.
Pending pairs are dispatched workload-major (sorted by workload, then
scheme) so consecutive tasks land on whatever worker already has that
workload resident.

Warming: the parent builds nothing.  The first round of a parallel
sweep pipelines a *warm* task one workload ahead of that workload's
pairs: a worker builds (and disk-caches) the workload's trace, frontend
plan and, when a pending pair consumes it, replacement pre-pass, and
keeps the context resident.  When ``warm(w_k)`` completes the parent
submits ``warm(w_k+1)`` and then ``w_k``'s pairs, so one CPU builds the
next workload while the others simulate the current one, and every
other worker mmaps the sidecars the warm wrote instead of redoing the
work.  :meth:`Runner.context_for` warms through the same helper, so the
serial and parallel paths build artifacts through one code path.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common import faults
from repro.common.durable import results_dir, write_atomic
from repro.common.env import env_number
from repro.frontend.plan import cached_plan, plan_kind
from repro.harness.experiment import run_experiment, scaled_records
from repro.harness.schemes import SchemeContext
from repro.mem.prepass import PREPASS_SCHEMES, cached_replacement_prepass
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult
from repro.workloads.profiles import get_workload


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

    The parent declares the pool hung when *no* future completes within
    this window — a per-progress deadline, not a per-job one, so slow
    workloads don't trip it as long as the pool keeps finishing work.
    """
    return env_number("REPRO_SWEEP_TIMEOUT", 0.0, 0.0, float)


def _sweep_retries() -> int:
    """Requeue budget per pair after a crash/stall (REPRO_SWEEP_RETRIES)."""
    return env_number("REPRO_SWEEP_RETRIES", 3, 0)


#: Resident :class:`SchemeContext` bound per Runner.  Every workload a
#: Runner touches used to keep its trace/plan/oracle resident forever —
#: fine for a bench process that exits, a leak in a long-lived server.
#: 4 is enough that workload-major sweeps and the figure benches (outer
#: loop over workloads) never thrash, small enough that a server that
#: has seen every workload holds a handful of traces, not all of them.
CONTEXT_CACHE_CAP = 4


#: Callback invoked by :meth:`Runner.sweep_pairs` after each *freshly
#: simulated* pair lands in the caches: ``(workload, scheme, result)``.
#: Cache hits never fire it.
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


#: Per-process resident sweep state: the configuration the pool
#: initializer installs plus one SchemeContext per workload seen, so a
#: worker deserializes each workload's trace/plan/oracle at most once.
_WORKER_STATE: Dict[str, object] = {}

#: Resident contexts kept per worker.  The pipelined first round runs
#: warms one workload ahead of the pairs, so one worker can hold
#: ``w_k-1`` (pairs still draining), ``w_k`` (its pairs now running) and
#: ``w_k+1`` (just warmed) at once; a cap below 3 would evict one of
#: them and deserialize that trace a second time.  Beyond that, the LRU
#: bound keeps traces/oracles of long-finished workloads from pinning
#: memory for the pool's lifetime.
_WORKER_CONTEXT_CAP = 3


def _sweep_worker_init(
    prefetcher: str, records: int, machine: MachineParams
) -> None:
    """Install the sweep configuration in a freshly-spawned worker."""
    _WORKER_STATE["prefetcher"] = prefetcher
    _WORKER_STATE["records"] = records
    _WORKER_STATE["machine"] = machine
    _WORKER_STATE["contexts"] = OrderedDict()
    # Fault arrival counters are per-process; a forked worker must count
    # its own arrivals, not inherit the parent's.
    faults.reset()


def _worker_context(workload: str) -> SchemeContext:
    """This worker's resident context for ``workload``.

    Built at most once per residency: the small LRU bound only evicts a
    workload the dispatch order has moved past, so the
    one-deserialization-per-worker property holds for workload-major
    sweeps while memory stays bounded for arbitrary ones.
    """
    contexts: "OrderedDict[str, SchemeContext]" = _WORKER_STATE["contexts"]
    ctx = contexts.get(workload)
    if ctx is None:
        trace = get_workload(workload).trace(records=_WORKER_STATE["records"])
        ctx = SchemeContext(trace=trace, machine=_WORKER_STATE["machine"])
        contexts[workload] = ctx
        while len(contexts) > _WORKER_CONTEXT_CAP:
            contexts.popitem(last=False)
    else:
        contexts.move_to_end(workload)
    return ctx


def _warm_artifacts(
    ctx: SchemeContext, prefetcher: str, machine: MachineParams, prepass: bool
) -> None:
    """Build (memo + disk cache) the artifacts ``ctx``'s pairs share.

    The frontend plan, so every scheme replays one branch-stack/FDP
    pass (entangling sweeps warm the ``none`` plan their runs take);
    and with ``prepass`` the replacement pre-pass the flat GHRP/Harmony
    twins consume.
    """
    cached_plan(ctx.trace, machine, plan_kind(prefetcher))
    if prepass:
        cached_replacement_prepass(ctx.trace)


def _warm_worker(workload: str, prepass: bool) -> None:
    """Warm ``workload`` in a resident worker.

    Builds the trace and the shared artifacts once, writes them to the
    disk caches for the other workers to mmap, and keeps the context
    resident for the pairs this worker picks up next.  Deliberately
    does not fire the ``worker`` fault site: its ordinals count pairs.
    """
    _warm_artifacts(
        _worker_context(workload),
        _WORKER_STATE["prefetcher"],
        _WORKER_STATE["machine"],
        prepass,
    )


def _sweep_worker(pair: Tuple[str, str]) -> Tuple[str, str, Dict[str, object]]:
    """Simulate one (workload, scheme) pair in a resident worker process.

    Runs uncached (the parent already filtered cache hits) and returns
    only the scalar measurements — live scheme objects don't cross the
    process boundary.  The trace/oracle context and the memoised
    frontend plan persist in the worker across pairs.
    """
    workload, scheme = pair
    faults.fire("worker")
    run = run_experiment(
        workload,
        scheme,
        prefetcher=_WORKER_STATE["prefetcher"],
        records=_WORKER_STATE["records"],
        machine=_WORKER_STATE["machine"],
        context=_worker_context(workload),
    ).run
    return workload, scheme, {k: getattr(run, k) for k in _SCALAR_FIELDS}


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
        if use_disk_cache is None:
            use_disk_cache = os.environ.get("REPRO_NO_DISK_CACHE", "") != "1"
        self.use_disk_cache = use_disk_cache
        self._memory: Dict[Tuple[str, str, str], RunResult] = {}
        self._contexts: "OrderedDict[str, SchemeContext]" = OrderedDict()
        # sweep()/run() are re-entrant (the sweep service issues them
        # from several executor threads against one shared Runner);
        # _memory writes are atomic dict ops, but the context LRU's
        # build-insert-evict sequence is not, so it takes a lock.
        self._context_lock = threading.Lock()
        #: Disk entries discarded as corrupt/stale by :meth:`_load_disk`
        #: over this Runner's lifetime (tests assert on it; a nonzero
        #: value after a clean run means something is mangling the
        #: results cache).
        self.disk_cache_rejects = 0

    # -- caching ------------------------------------------------------------

    def _key(self, workload: str, scheme: str) -> Tuple[str, str, str]:
        return (workload, scheme, self.prefetcher)

    def _disk_path(self, workload: str, scheme: str) -> Path:
        fingerprint = self.machine.fingerprint()
        name = (
            f"{workload}.{scheme}.{self.prefetcher}"
            f".r{self.records}.{fingerprint}.json"
        )
        return results_dir() / name

    def _load_disk(self, workload: str, scheme: str) -> Optional[RunResult]:
        path = self._disk_path(workload, scheme)
        try:
            payload = json.loads(path.read_text())
            return RunResult(
                **{k: payload[k] for k in _SCALAR_FIELDS}
            )
        except FileNotFoundError:
            # Plain cache miss (or another worker won an unlink race).
            return None
        except OSError:
            # Concurrent sweep workers can catch an entry mid-write or
            # mid-unlink; treat any unreadable file as a miss without
            # destroying what the writer may still be producing.
            return None
        except (json.JSONDecodeError, KeyError, TypeError):
            self.disk_cache_rejects += 1
            path.unlink(missing_ok=True)
            return None

    def _store_disk(self, workload: str, scheme: str, run: RunResult) -> None:
        # Write-then-rename so concurrent readers never observe a
        # partial entry (and never mistake one for corruption), fsynced
        # before the rename: the entry is the sweep's durable record
        # that this pair is done.
        payload = {k: getattr(run, k) for k in _SCALAR_FIELDS}
        write_atomic(
            self._disk_path(workload, scheme),
            json.dumps(payload).encode(),
            fsync=True,
        )

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
        self, workload: str, scheme: str, result: RunResult, *, allow_disk: bool = True
    ) -> None:
        """Install a fresh result in the memory layer and, if allowed, on disk."""
        self._memory[self._key(workload, scheme)] = result
        if allow_disk and self.use_disk_cache:
            self._store_disk(workload, scheme, result)

    def context_for(self, workload: str) -> SchemeContext:
        """Shared trace/oracle context per workload, LRU-bounded.

        Building a context also warms the workload's shared artifacts
        through :func:`_warm_artifacts` — the helper parallel sweeps'
        warm tasks use — so every scheme simulated against this
        workload shares one frontend plan instead of redoing it per
        pair.

        At most :data:`CONTEXT_CACHE_CAP` contexts stay resident; the
        least-recently-used one is dropped beyond that.  Eviction is
        safe because everything a context holds is rebuilt bit-identical
        from the trace/plan disk caches (``tests/test_sweep_bugs.py``
        pins reload correctness), so a long-lived server process pays a
        reload, never a wrong answer.
        """
        with self._context_lock:
            ctx = self._contexts.get(workload)
            if ctx is not None:
                self._contexts.move_to_end(workload)
                return ctx
            trace = get_workload(workload).trace(records=self.records)
            ctx = SchemeContext(trace=trace, machine=self.machine)
            _warm_artifacts(ctx, self.prefetcher, self.machine, prepass=False)
            self._contexts[workload] = ctx
            while len(self._contexts) > CONTEXT_CACHE_CAP:
                self._contexts.popitem(last=False)
            return ctx

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
        result = run_experiment(
            workload,
            scheme,
            prefetcher=self.prefetcher,
            records=self.records,
            machine=self.machine,
            context=self.context_for(workload),
            on_shard=(
                None
                if on_shard is None
                else lambda shard, done, total: on_shard(
                    workload, scheme, shard, done, total
                )
            ),
            should_stop=should_stop,
        ).run
        self._admit(workload, scheme, result, allow_disk=allow_disk)
        return result

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
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run an explicit pair list; returns {(workload, scheme): result}.

        Unlike :meth:`sweep` the pairs need not form a cross product —
        the sweep service admits exactly the pairs no other request is
        already simulating, which is rarely a full grid.

        ``jobs`` > 1 simulates uncached pairs in that many *resident*
        worker processes (default: the ``REPRO_JOBS`` environment
        variable, falling back to serial): a pool initializer installs
        the sweep configuration once per process, each worker keeps a
        per-workload :class:`SchemeContext` alive across pairs, and
        pending pairs are dispatched workload-major so consecutive
        tasks reuse whatever a worker already has resident.  The parent
        builds no artifact: each workload's trace, plan and pre-pass
        are warmed by a task in the pool, submitted one workload ahead
        of that workload's pairs (see :meth:`_sweep_parallel`), so the
        first results arrive after one workload's warm rather than
        after all of them.  Cache hits never fork a worker.  Results
        are identical to the serial sweep: the engine is deterministic
        and workers only return scalar measurements, which the parent
        installs in both cache layers.

        ``on_result`` is called in the sweeping thread after each
        *freshly simulated* pair has been admitted to the caches — the
        sweep service uses it to stream per-pair progress and resolve
        in-flight dedup futures; cache hits never fire it.

        Crash safety (``tests/test_fault_injection.py`` pins recovered
        sweeps scalar-identical to undisturbed ones): dead workers (the
        pool breaks) and hung pools (no completion within
        ``REPRO_SWEEP_TIMEOUT`` seconds) are killed and their
        unfinished pairs requeued into a rebuilt pool with exponential
        backoff, each pair at most ``REPRO_SWEEP_RETRIES`` times — but
        a pair that fails with a *deterministic* error (anything other
        than a dead pool or an injected fault) raises immediately, with
        the worker's original exception chained as ``__cause__``.
        Every finished pair is in the result cache (fsynced) before
        ``on_result`` fires, so recovering from a crashed sweep
        is rerunning it: finished pairs are served from disk and only
        the rest are simulated — with ``REPRO_SHARD_WINDOW``, a pair
        that died mid-run restarts from its last shard-ledger boundary.
        Without the disk cache nothing survives the process.

        With sharded execution on (``REPRO_SHARD_WINDOW``), the serial
        path additionally honours ``on_shard`` (per-boundary progress,
        ``(workload, scheme, shard, done, total)``) and ``should_stop``
        (the graceful-drain poll: when it reports true at a boundary,
        the sweep stops with
        :class:`~repro.harness.shards.DrainRequested`, the pair's shard
        ledger persisted, so a re-sweep continues from exactly there).
        Pool workers run in other processes, so the parallel path
        ignores both hooks — shards there still ledger and resume via the
        environment, they just don't report into this process.
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
        if jobs > 1 and len(pending) > 1:
            self._sweep_parallel(pending, jobs, on_result)
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
        jobs: int,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        """Supervised parallel execution of ``pending`` pairs.

        The first round pipelines warm tasks (:func:`_warm_worker`) one
        workload ahead of the pairs: it submits ``warm(w_1)``, and when
        ``warm(w_k)`` completes it submits ``warm(w_k+1)`` and then
        ``w_k``'s pairs, still workload-major.  Each later round
        submits its requeued pairs directly; a worker rebuilds whatever
        artifact is missing on its own (concurrent builds of one entry
        are safe: every writer commits through its own temp file).
        Completions are collected as they arrive.  Three *transient*
        failure classes are retried:

        * an *injected fault* (:class:`~repro.common.faults.FaultInjected`
          — the crash-safety harness standing in for a flaky job) —
          requeue just that pair, or for a warm task that workload's
          pairs (the next warm still goes out);
        * a *dead worker* (``BrokenProcessPool``: someone was killed,
          e.g. OOM) — the executor is unusable, requeue all unfinished;
        * a *hung pool* (no pair or warm completed within the
          ``REPRO_SWEEP_TIMEOUT`` progress deadline) — SIGKILL the
          workers (they are non-daemonic and would otherwise keep the
          interpreter alive), requeue all unfinished.

        Any *other* exception out of a worker is a deterministic
        simulation error — the engine is deterministic, so re-running
        the pair would reproduce the same crash ``REPRO_SWEEP_RETRIES``
        times and then lose the traceback.  Those fail fast: the pool
        is killed and a ``RuntimeError`` naming the pair (or the
        workload, for a warm task) raises with the worker's original
        exception chained as ``__cause__``.

        Requeued pairs retry in a rebuilt pool after exponential
        backoff; a pair that fails more than ``REPRO_SWEEP_RETRIES``
        times raises (chaining the last exception seen for that pair,
        if any), so even an injected crash cannot loop forever.
        """
        timeout = _sweep_timeout()
        retries = _sweep_retries()
        prepass_workloads = {w for w, s in pending if s in PREPASS_SCHEMES}
        attempts: Dict[Tuple[str, str], int] = {}
        last_exc: Dict[Tuple[str, str], BaseException] = {}
        queue = list(pending)
        round_number = 0
        while queue:
            round_number += 1
            if round_number > 1:
                time.sleep(min(0.1 * 2 ** (round_number - 2), 2.0))
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(queue)),
                initializer=_sweep_worker_init,
                initargs=(self.prefetcher, self.records, self.machine),
            )
            futures: Dict[Future, Tuple[str, str]] = {}
            warms: Dict[Future, str] = {}
            remaining: Set[Future] = set()
            broken = False

            def submit(fn, *args) -> Optional[Future]:
                """Submit to the pool; None once it is broken or dead."""
                nonlocal broken
                if broken:
                    return None
                try:
                    future = pool.submit(fn, *args)
                except BrokenProcessPool:
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

            def release(workload: str) -> None:
                """Submit ``workload``'s held pairs; leftovers stay held."""
                pairs = held[workload]
                while pairs:
                    future = submit(_sweep_worker, pairs[0])
                    if future is None:
                        return
                    futures[future] = pairs.pop(0)
                del held[workload]

            # Pairs held back until their workload's warm completes, in
            # workload-major order.  Only the first round warms; retry
            # rounds submit their pairs directly.
            held: Dict[str, List[Tuple[str, str]]] = {}
            for pair in queue:
                held.setdefault(pair[0], []).append(pair)
            if round_number == 1:
                to_warm = iter(list(held))
                warm_next()
            else:
                for workload in list(held):
                    release(workload)
            queue = []
            failed: List[Tuple[str, str]] = []
            fatal: Optional[Tuple[str, BaseException]] = None
            try:
                while remaining and not broken:
                    done, _ = wait(
                        remaining,
                        timeout=timeout if timeout > 0 else None,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        broken = True  # progress deadline exceeded
                        break
                    remaining.difference_update(done)
                    for future in done:
                        if future in warms:
                            workload = warms[future]
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
                                broken = True  # kill the pool, don't drain it
                            else:
                                warm_next()
                                release(workload)
                        else:
                            pair = futures[future]
                            try:
                                workload, scheme, scalars = future.result()
                            except BrokenProcessPool as exc:
                                broken = True
                                last_exc[pair] = exc
                                failed.append(pair)
                            except faults.FaultInjected as exc:
                                last_exc[pair] = exc
                                failed.append(pair)
                            except Exception as exc:
                                fatal = (f"pair {pair}", exc)
                                broken = True  # kill the pool, don't drain it
                            else:
                                result = RunResult(**scalars)
                                self._admit(workload, scheme, result)
                                if on_result is not None:
                                    on_result(workload, scheme, result)
                        if fatal is not None:
                            break
            finally:
                if broken:
                    _kill_pool_workers(pool)
                pool.shutdown(wait=not broken, cancel_futures=True)
            if fatal is not None:
                what, exc = fatal
                raise RuntimeError(
                    f"sweep {what} failed deterministically "
                    f"({type(exc).__name__}); not retrying"
                ) from exc
            requeue = failed + [futures[f] for f in remaining if f in futures]
            requeue += [pair for pairs in held.values() for pair in pairs]
            for pair in requeue:
                count = attempts.get(pair, 0) + 1
                attempts[pair] = count
                if count > retries:
                    raise RuntimeError(
                        f"sweep pair {pair} failed {count} times "
                        f"(REPRO_SWEEP_RETRIES={retries}); giving up"
                    ) from last_exc.get(pair)
            queue = sorted(set(requeue))
