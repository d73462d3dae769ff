"""The sweep service: a long-lived asyncio HTTP simulation server.

Request handling is a thin, single-threaded asyncio loop; simulation is
not.  A ``POST /sweep`` request is partitioned by the admission table
(:mod:`repro.service.admission`) into warm pairs (served straight out
of the runner's fingerprinted result cache), in-flight pairs (joined to
the future some concurrent request already owns) and admitted pairs —
only the last are queued, through ``Runner.sweep_pairs`` called from a
small thread pool gated by a semaphore
(``ServiceConfig.max_concurrent_sweeps`` sweeps at a time).  A request
whose cold work would exceed ``max_queue`` pending sweeps is refused
with 503 before any simulation starts — the
admission-control analogue of ACIC bypassing a line the predictor says
is not worth caching.

Simulation runs off the server's GIL: the service forks a resident
:class:`~repro.harness.runner.WorkerPool` of ``ServiceConfig.jobs``
processes when it is built, and every admitted pair of every sweep runs
there — the sim slots share that one pool, and their threads only wait
on it and install the results.  Before a cold sweep takes a sim slot,
its request awaits the pool's warm of each admitted workload whose
length no warm has covered: one task at a time per workload, shared by
concurrent requests and counted as the request's cold work.  The warm
loads that length when the trace cache holds it; otherwise it walks (or
grows) and plans the workload a little past it in one worker, which
keeps the walk, and saves the trace with the walk's state and the plan,
and every shorter length is then cut from them, in that worker or in
one that resumes the saved walk (a worker whose own walk is shorter
resumes the longer saved one).  So no length is walked or planned by
both workers, or inside a slot.  ``scripts/serve_sweeps.py`` builds
the service before it starts any thread; :class:`ServiceThread` builds
it in the calling thread, before its own event-loop thread starts (other
threads of the host may be running).  Each worker keeps the environment
and module state it was forked with, so ``REPRO_*`` settings must be in
place before the service is built.  With ``jobs=1`` there is no pool and
sweeps simulate in the sim thread; sharded sweeps
(``REPRO_SHARD_WINDOW``) do too, because their progress events and drain
polls are in-process hooks, and warm nothing in the pool.  A broken or
hung pool is killed and replaced by the supervision loop of
``Runner.sweep_pairs``, or by a request's wait on a warm, both on the
pool's progress deadline (``REPRO_SWEEP_TIMEOUT``).  That replacement
forks from a sim thread or a helper thread while the event loop and
the slots run, so the module locks those threads take (walk memo, plan
and artifact stores, context table) are re-created after a fork
(``tests/test_fork_locks.py``).  Shutdown stops the
workers, so none outlives the server.

Endpoints::

    POST /sweep      run (or fetch) a grid; see repro.service.protocol
    GET  /healthz    liveness + admission counters + queue depth
    GET  /schemes    registered scheme names -> descriptions
    GET  /workloads  registered workload names

The server speaks minimal HTTP/1.1 over asyncio streams (stdlib only,
one connection per request, ``Connection: close``).  Streaming
responses use chunked transfer encoding, one JSON line per completed
pair, so clients watch cold grids fill in pair by pair.

Both hosts serve through one coroutine, :func:`run_service`:
``scripts/serve_sweeps.py`` runs it on the main thread and sets its
stop event on SIGTERM/SIGINT; :class:`ServiceThread` runs it on a
background thread for tests, benches and :mod:`scripts.bench_service`
and sets it in ``stop()``.  Shutdown is graceful: the stop flips the
service into *draining* — new ``/sweep`` requests get 503, in-flight
sharded sweeps (``REPRO_SHARD_WINDOW``) stop at their next window
boundary with the warm state fsync'd in the shard ledger
(:mod:`repro.harness.shards`), and the host exits cleanly; a restarted
server resumes the drained work from the ledgers.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from threading import Event as ThreadEvent, Thread
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.faults import FaultInjected
from repro.harness.experiment import scaled_records
from repro.harness.runner import Runner, WorkerPool
from repro.harness.schemes import available_schemes
from repro.harness.shards import DrainRequested, shard_window
from repro.service.admission import Admission, Pair
from repro.service.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    encode_jsonl,
    pair_token,
    parse_sweep_request,
    result_event,
    scalars_of,
    shard_event,
)
from repro.uarch.params import MachineParams
from repro.uarch.timing import RunResult
from repro.workloads.profiles import known_workload_names

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Resident runners (see :meth:`SweepService._runner_for`).
RUNNER_POOL_CAP = 4
#: The least value of each :class:`ServiceConfig` size.
SIZE_FLOORS = {
    "jobs": 1, "max_concurrent_sweeps": 1, "max_queue": 0, "drain_timeout": 0
}


@dataclass
class ServiceConfig:
    """Server-side knobs (requests may narrow, never widen, them)."""

    #: Default trace length for requests that omit ``records``
    #: (None = the harness default, honouring ``REPRO_SCALE``).
    records: Optional[int] = None
    #: Resident worker processes every cold sweep simulates in, forked
    #: when the service is built (each keeps the environment it was
    #: forked with) and shared by the sim slots; 1 = no pool, sweeps
    #: simulate in the sim thread.
    jobs: int = field(default_factory=lambda: min(2, os.cpu_count() or 1))
    #: Concurrent ``Runner.sweep_pairs`` calls, one sim thread each;
    #: with a worker pool their sweeps share its ``jobs`` processes.  A
    #: sweep keeps at most ``jobs + 1`` pairs on the pool at a time, so
    #: with two slots a short request's pairs start after a few of a
    #: long request's, not after all of them: a short request overtakes
    #: a long one without oversubscribing the machine.  A request's pool
    #: warms run before its sweep takes a slot, so a first-time
    #: workload's build holds none: it overlaps the sweeps in the slots.
    max_concurrent_sweeps: int = 2
    #: Cold sweeps allowed in flight/queued before requests that would
    #: add more are refused with 503 (warm/joined requests always pass).
    max_queue: int = 8
    #: Seconds a shutdown waits for in-flight sweeps to reach a shard
    #: boundary (or finish) before failing what is left.
    drain_timeout: float = 30.0


def _retrieve(future: "asyncio.Future") -> None:
    """Mark a settled future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


class _HttpError(Exception):
    """Request-level failure carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepService:
    """One service instance: admission table, runner pool, sim slots."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        for name, least in SIZE_FLOORS.items():
            if getattr(self.config, name) < least:
                raise ValueError(
                    f"ServiceConfig.{name} must be at least {least}, "
                    f"got {getattr(self.config, name)}"
                )
        #: The resident worker pool, forked here before this service's
        #: sim threads exist; None when ``jobs`` is 1.
        self.workers: Optional[WorkerPool] = (
            WorkerPool(self.config.jobs) if self.config.jobs > 1 else None
        )
        self.admission = Admission()
        slots = self.config.max_concurrent_sweeps
        self._sim_slots = asyncio.Semaphore(slots)
        self._sim_pool = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="sweep-sim"
        )
        #: Cold sweeps scheduled and not yet finished (the 503 gate).
        self.cold_sweeps = 0
        #: Graceful-shutdown flag: set by :meth:`begin_drain`; every new
        #: ``/sweep`` is then refused with 503, and in-flight sharded
        #: sweeps observe it via their ``should_stop`` poll and stop at
        #: the next ledgered window boundary.  Written only on the event
        #: loop thread; read (as a plain bool) from sim-pool threads.
        self.draining = False
        #: Runners by (records, prefetcher, machine) configuration, in
        #: LRU order, shared across requests so the in-memory result
        #: cache is server-wide.  Only the event-loop thread mutates
        #: this dict.
        self._runners: "OrderedDict[Tuple[int, str, str], Runner]" = (
            OrderedDict()
        )

    def close(self) -> None:
        """Stop the sim threads and the workers; idempotent.

        Workers still simulating (a drain that timed out) are killed;
        idle ones are shut down and reaped.
        """
        self._sim_pool.shutdown(wait=False, cancel_futures=True)
        if self.workers is not None:
            self.workers.close(kill=self.cold_sweeps > 0)

    # -- graceful drain -----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; let in-flight work run to a safe stopping point."""
        self.draining = True

    async def shutdown(self) -> None:
        """Drain and close: the SIGTERM path.

        Sets :attr:`draining` (new ``/sweep`` requests 503 from then
        on), then waits up to ``ServiceConfig.drain_timeout`` seconds
        for in-flight sweeps to finish — sharded sweeps stop early at
        their next window boundary with the boundary already fsync'd in
        the shard ledger, so a restarted server resumes from exactly
        there.  Whatever is still unresolved at the deadline is failed
        rather than left hanging, and the sim pool is shut down.  The
        caller keeps serving (and 503ing) while this runs; it closes the
        listener afterwards.
        """
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self.cold_sweeps > 0 and loop.time() < deadline:
            await asyncio.sleep(0.05)
        self.admission.fail_all(
            DrainRequested("service-shutdown", 0, 0)
        )
        self.close()

    # -- runner pool --------------------------------------------------------

    def _runner_for(
        self, records: int, prefetcher: str, machine: MachineParams
    ) -> Runner:
        """The runner for one configuration, from a bounded LRU pool.

        Each runner keeps its simulated results in memory (contexts
        live in the process's one table, see
        :func:`repro.harness.runner._resident_context`), so a new
        configuration evicts the least recently used runners beyond
        :data:`RUNNER_POOL_CAP` that have no pairs in flight (so
        concurrent requests still dedupe).  Warm pairs of an
        evicted configuration are then served from the disk result
        cache (re-simulated under ``REPRO_NO_DISK_CACHE=1``).
        """
        key = (records, prefetcher, machine.fingerprint())
        runner = self._runners.get(key)
        if runner is None:
            runner = self._runners[key] = Runner(
                records=records, prefetcher=prefetcher, machine=machine
            )
            for old, resident in list(self._runners.items())[:-RUNNER_POOL_CAP]:
                if not self.admission.owns(resident):
                    del self._runners[old]
        self._runners.move_to_end(key)
        return runner

    # -- simulation ---------------------------------------------------------

    async def _simulate(
        self,
        runner: Runner,
        admitted: List[Pair],
        events: Optional["asyncio.Queue"] = None,
    ) -> None:
        """Queue one request's admitted pairs through ``sweep_pairs``.

        Runs in a sim-pool thread behind the concurrency semaphore; the
        pairs simulate in the resident worker pool when there is one.
        Per-pair completions resolve the in-flight futures as they land
        (threadsafe hop back onto the loop); pairs the sweep satisfied
        from a cache layer instead of ``on_result`` are resolved from
        the returned map, and a crashed sweep fails every still-pending
        future so joined requests get an error, not a hung connection.

        ``events`` (streaming requests) receives one
        :func:`~repro.service.protocol.shard_event` per completed shard
        window when sharded execution is active.  The sweep polls
        :attr:`draining` at every shard boundary: a drain stops it with
        :class:`~repro.harness.shards.DrainRequested` — boundary state
        already fsync'd in the shard ledger, so the restarted server
        resumes there — which fails the pending futures *without*
        counting as a service error.
        """
        loop = asyncio.get_running_loop()

        def on_result(workload: str, scheme: str, result: RunResult) -> None:
            loop.call_soon_threadsafe(
                self.admission.resolve, runner, workload, scheme, result
            )

        def on_shard(
            workload: str, scheme: str, shard: int, done: int, total: int
        ) -> None:
            if events is not None:
                loop.call_soon_threadsafe(
                    events.put_nowait,
                    shard_event(workload, scheme, shard, done, total),
                )

        try:
            if self.workers is not None and shard_window() <= 0:
                await self._warm(runner, admitted)
            async with self._sim_slots:
                results = await loop.run_in_executor(
                    self._sim_pool,
                    lambda: runner.sweep_pairs(
                        admitted,
                        jobs=1,
                        on_result=on_result,
                        on_shard=on_shard,
                        should_stop=lambda: self.draining,
                        pool=self.workers,
                    ),
                )
            for pair in admitted:
                self.admission.resolve(runner, *pair, results[pair])
        except DrainRequested as exc:
            self.admission.fail(runner, admitted, exc)
        except Exception as exc:
            self.admission.stats.errors += 1
            self.admission.fail(runner, admitted, exc)
        finally:
            self.cold_sweeps -= 1

    async def _warm(self, runner: Runner, admitted: List[Pair]) -> None:
        """Await the pool's warms of the admitted workloads, before the
        sweep takes a sim slot.

        A workload is built only by a warm, when no warm has covered the
        length asked (:meth:`~repro.harness.runner.WorkerPool.warm`),
        and concurrent requests share it; so no length is walked or
        planned by both workers, and none while its sweep holds a slot.
        The wait runs on the pool's progress deadline, as a sweep's
        supervision does: a pool that makes no progress within it is
        killed and replaced here.  A warm that raises an injected fault,
        dies with its pool or is cut short that way leaves its pairs to
        build what they need (the sweep replaces a broken pool); any
        other failure is deterministic and fails the request.
        """
        pool = self.workers
        while True:
            executor = pool.executor
            try:
                warms = runner.warm(pool, admitted)
            except (BrokenProcessPool, RuntimeError):
                return  # the executor is broken or shut down: the sweep sees it
            waiting = {asyncio.wrap_future(f) for f in warms if not f.done()}
            if not waiting:
                return
            while waiting:
                done, waiting = await asyncio.wait(
                    waiting, timeout=pool.progress_deadline()
                )
                if not done and pool.progress_deadline() == 0:
                    # Its warms fail with BrokenProcessPool; the fork
                    # stays off the event loop.
                    await asyncio.to_thread(pool.replace, executor)
                    return
                for future in done:
                    error = future.exception()
                    if isinstance(error, (FaultInjected, BrokenProcessPool)):
                        return
                    if error is not None:
                        raise error

    # -- request handling ---------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read a request, route it, close."""
        try:
            parsed = await self._read_request(reader)
            if parsed is not None:
                await self._route(writer, *parsed)
        except _HttpError as exc:
            await self._respond_json(
                writer, exc.status, {"error": str(exc)}
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/mid-response
        except Exception as exc:  # never kill the accept loop
            self.admission.stats.errors += 1
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None  # connection opened and closed without a request
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        path = target.split("?", 1)[0]
        if path == "/sweep":
            if method != "POST":
                raise _HttpError(405, "use POST /sweep")
            await self._handle_sweep(writer, body)
        elif path == "/healthz" and method == "GET":
            await self._respond_json(
                writer,
                200,
                {
                    "status": "draining" if self.draining else "ok",
                    "draining": self.draining,
                    "stats": self.admission.stats.snapshot(),
                    "in_flight_pairs": self.admission.in_flight(),
                    "cold_sweeps": self.cold_sweeps,
                    "runners": len(self._runners),
                    "pool_replacements": (
                        self.workers.replacements if self.workers else 0
                    ),
                },
            )
        elif path == "/schemes" and method == "GET":
            await self._respond_json(writer, 200, available_schemes())
        elif path == "/workloads" and method == "GET":
            await self._respond_json(writer, 200, list(known_workload_names()))
        else:
            raise _HttpError(404, f"unknown endpoint {method} {path}")

    async def _handle_sweep(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            request = parse_sweep_request(body)
        except ProtocolError as exc:
            self.admission.stats.errors += 1
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        if self.draining:
            # Graceful shutdown in progress: even warm requests are
            # refused, because the listener may close at any moment.
            self.admission.stats.rejected += 1
            await self._respond_json(
                writer,
                503,
                {"error": "server draining for shutdown; retry later"},
            )
            return
        records = (
            request.records or self.config.records or scaled_records(None)
        )
        runner = self._runner_for(records, request.prefetcher, request.machine)
        loop = asyncio.get_running_loop()
        # No await between partition and (reject | create_task): the
        # admitted set is claimed atomically with respect to every
        # other request on this loop.
        warm, joined, admitted = self.admission.partition(
            runner, request.pairs(), loop
        )
        if admitted and self.cold_sweeps >= self.config.max_queue:
            self.admission.abandon(runner, admitted)
            self.admission.stats.rejected += 1
            await self._respond_json(
                writer,
                503,
                {
                    "error": (
                        f"cold-work queue full "
                        f"({self.cold_sweeps} sweeps in flight, "
                        f"max {self.config.max_queue}); retry later"
                    )
                },
            )
            return
        self.admission.stats.requests += 1
        # Streaming requests that admit cold work get a per-request
        # event queue: the sweep posts one shard_event per completed
        # window boundary (sharded execution only) and the stream
        # multiplexes them between result lines.
        events: Optional["asyncio.Queue"] = (
            asyncio.Queue() if request.stream and admitted else None
        )
        if admitted:
            self.cold_sweeps += 1
            asyncio.ensure_future(self._simulate(runner, admitted, events))
        admitted_set = set(admitted)
        sources = {pair: "warm" for pair in warm}
        for pair in joined:
            sources[pair] = (
                "simulated" if pair in admitted_set else "inflight"
            )
        if request.stream:
            await self._respond_stream(writer, warm, joined, sources, events)
        else:
            await self._respond_bulk(writer, warm, joined, sources)

    async def _respond_bulk(
        self,
        writer: asyncio.StreamWriter,
        warm: Dict[Pair, RunResult],
        joined: Dict[Pair, "asyncio.Future[RunResult]"],
        sources: Dict[Pair, str],
    ) -> None:
        results = {
            pair_token(*pair): scalars_of(result)
            for pair, result in warm.items()
        }
        try:
            for pair, future in joined.items():
                results[pair_token(*pair)] = scalars_of(await future)
        except Exception as exc:
            # The first failure decides the response; collect the other
            # pairs' outcomes as they settle, so a failed one is not
            # logged as never retrieved when it is garbage-collected.
            for future in joined.values():
                future.add_done_callback(_retrieve)
            if isinstance(exc, DrainRequested):
                # Not a failure: the server is shutting down with this
                # request's progress ledgered.  503 tells the client to
                # retry against the restarted server, which resumes.
                await self._respond_json(
                    writer, 503, {"error": f"server draining: {exc}"}
                )
            else:
                await self._respond_json(
                    writer, 500, {"error": f"sweep failed: {exc}"}
                )
            return
        await self._respond_json(
            writer,
            200,
            {
                "results": results,
                "sources": {
                    pair_token(*pair): source
                    for pair, source in sources.items()
                },
                "stats": self.admission.stats.snapshot(),
            },
        )

    async def _respond_stream(
        self,
        writer: asyncio.StreamWriter,
        warm: Dict[Pair, RunResult],
        joined: Dict[Pair, "asyncio.Future[RunResult]"],
        sources: Dict[Pair, str],
        events: Optional["asyncio.Queue"] = None,
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        for pair, result in warm.items():
            await self._write_chunk(
                writer, encode_jsonl(result_event(*pair, "warm", result))
            )

        async def labelled(pair: Pair) -> Tuple[Pair, RunResult]:
            return pair, await joined[pair]

        tasks = {
            asyncio.ensure_future(labelled(pair)): pair for pair in joined
        }
        pending = set(tasks)
        # One extra competitor in the wait set: the next shard progress
        # event.  Re-armed after each arrival, cancelled once every
        # pair future has settled (late events are flushed below).
        event_task: Optional["asyncio.Task"] = (
            asyncio.ensure_future(events.get()) if events is not None else None
        )
        failure: Optional[BaseException] = None
        while pending:
            waiting = pending | ({event_task} if event_task is not None else set())
            done, _ = await asyncio.wait(
                waiting, return_when=asyncio.FIRST_COMPLETED
            )
            if event_task is not None and event_task in done:
                done.discard(event_task)
                await self._write_chunk(
                    writer, encode_jsonl(event_task.result())
                )
                event_task = asyncio.ensure_future(events.get())
            pending -= done
            for task in done:  # drain everything: no abandoned futures
                pair = tasks[task]
                try:
                    _, result = task.result()
                except Exception as exc:
                    failure = exc
                else:
                    await self._write_chunk(
                        writer,
                        encode_jsonl(
                            result_event(*pair, sources[pair], result)
                        ),
                    )
        if event_task is not None:
            event_task.cancel()
            # Flush shard events that landed after the last pair future
            # settled, so a drained stream still shows its final
            # ledgered boundary before the error line.
            while events is not None and not events.empty():
                await self._write_chunk(
                    writer, encode_jsonl(events.get_nowait())
                )
        if failure is not None:
            await self._write_chunk(
                writer,
                encode_jsonl(
                    {
                        "event": "error",
                        "error": (
                            f"server draining: {failure}"
                            if isinstance(failure, DrainRequested)
                            else f"sweep failed: {failure}"
                        ),
                        "draining": isinstance(failure, DrainRequested),
                    }
                ),
            )
        else:
            await self._write_chunk(
                writer,
                encode_jsonl(
                    {
                        "event": "done",
                        "pairs": len(warm) + len(joined),
                        "stats": self.admission.stats.snapshot(),
                    }
                ),
            )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _respond_json(
        writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()


async def run_service(
    service: SweepService,
    host: str,
    port: int,
    stop: asyncio.Event,
    on_listening: Callable[[Tuple[str, int]], None],
) -> None:
    """Serve ``service`` on ``host:port`` until ``stop``, then drain it.

    ``on_listening`` gets the bound ``(host, port)`` once the listener
    is up.  When ``stop`` is set, :meth:`SweepService.shutdown` runs
    with the listener still open, so requests keep getting answers (503
    for new sweeps) until the last in-flight sweep parks at a ledgered
    boundary; the listener then closes and the service is closed
    however this returns.
    """
    try:
        server = await asyncio.start_server(service.handle, host, port)
        async with server:
            on_listening(server.sockets[0].getsockname()[:2])
            await stop.wait()
            await service.shutdown()
    finally:
        service.close()


class ServiceThread:
    """A sweep service hosted on a background thread.

    The harness tests, benches and ``bench_service.py`` all embed the
    server this way::

        with ServiceThread(ServiceConfig(records=4000)) as svc:
            client = ServiceClient(port=svc.port)
            ...

    ``port`` is the ephemeral port actually bound (the constructor's
    ``port=0`` default asks the OS for a free one, so parallel test
    runs never collide).

    It serves through :func:`run_service`, as the SIGTERM'd foreground
    server does, so ``stop()`` performs the same graceful drain:
    in-flight sweeps run to their next shard boundary (ledgered,
    resumable) within ``ServiceConfig.drain_timeout`` instead of being
    dropped on the floor — the bug this replaced was a stop that closed
    the sim pool under a live sweep.  ``begin_drain()`` flips the 503
    gate without stopping, for tests that drive the drain window
    explicitly.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._config = config or ServiceConfig()
        self._host = host
        self._port = port
        self.port: Optional[int] = None
        self.service: Optional[SweepService] = None
        self._ready = ThreadEvent()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = Thread(
            target=self._run, name="sweep-service", daemon=True
        )

    def start(self) -> "ServiceThread":
        # Build the service, and fork its pool, before the event-loop
        # thread exists.
        try:
            self.service = SweepService(self._config)
        except Exception as exc:
            raise RuntimeError("sweep service failed to start") from exc
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise RuntimeError("sweep service failed to start") from self._failure
        return self

    def begin_drain(self) -> None:
        """Flip the service into draining (503 new sweeps) without stopping."""
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.begin_drain)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30 + self._config.drain_timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._failure = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        stop = asyncio.Event()

        def listening(bound: Tuple[str, int]) -> None:
            self.port = bound[1]
            self._loop, self._stop = asyncio.get_running_loop(), stop
            self._ready.set()

        await run_service(self.service, self._host, self._port, stop, listening)
