"""Admission control and in-flight dedup for the sweep service.

The paper's discipline, one level up: ACIC admits a line into the
i-cache only when the predictor says caching it pays; the service
admits a (workload, scheme) pair into the simulation queue only when
no cheaper source already covers it.  Each requested pair takes the
first branch that applies:

* **warm** — the runner's result cache (memory or the fingerprinted
  ``.cache/results`` disk layer) already holds it: serve it, cost zero;
* **in-flight** — another request is simulating it right now: join
  that job's future, so N concurrent clients asking for the same grid
  cost one simulation;
* **admitted** — genuinely cold: this request owns it and queues it
  through ``Runner.sweep_pairs``.  Its response reports it
  ``simulated``: the sweep answered it, by a simulation, by a
  trace-keyed result entry (another length had already simulated the
  trace this length cuts; counted as ``reused``) or by a records-keyed
  entry that landed after admission.

The table is event-loop confined: :meth:`Admission.partition` runs on
the server's loop with no ``await`` inside, so two requests arriving
together can never both admit the same pair — the dedup guarantee the
service tests pin (`at most one simulation per pair`) is a
single-threaded invariant, not a lock.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.harness.runner import Runner
from repro.uarch.timing import RunResult

#: A pair's dedup identity: the owning Runner already encodes the
#: (records, prefetcher, machine) configuration, so its id plus the
#: pair is unique per distinct simulation.
PairKey = Tuple[int, str, str]

Pair = Tuple[str, str]


@dataclass
class ServiceStats:
    """Service-lifetime counters, reported by ``/healthz`` and ``done``
    events."""

    requests: int = 0
    rejected: int = 0
    warm_hits: int = 0
    dedup_hits: int = 0
    admitted: int = 0
    #: Admitted pairs a trace-keyed result entry answered: another
    #: length had already simulated the trace they cut.
    reused: int = 0
    errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        # Every attribute is a counter field: a shallow copy is asdict's
        # result without its per-field deep copy.
        return dict(vars(self))


class Admission:
    """The warm / in-flight / admit decision table."""

    def __init__(self) -> None:
        self._inflight: Dict[PairKey, "asyncio.Future[RunResult]"] = {}
        self.stats = ServiceStats()

    @staticmethod
    def _key(runner: Runner, pair: Pair) -> PairKey:
        return (id(runner), pair[0], pair[1])

    def in_flight(self) -> int:
        """Pairs currently being simulated on behalf of some request."""
        return len(self._inflight)

    def owns(self, runner: Runner) -> bool:
        """Whether any of ``runner``'s pairs are in flight."""
        return any(key[0] == id(runner) for key in self._inflight)

    def partition(
        self,
        runner: Runner,
        pairs: Iterable[Pair],
        loop: asyncio.AbstractEventLoop,
    ) -> Tuple[
        Dict[Pair, RunResult],
        Dict[Pair, "asyncio.Future[RunResult]"],
        List[Pair],
    ]:
        """Split a request's pairs into (warm, joined, admitted).

        Admitted pairs get a fresh future registered in the in-flight
        table; the caller must guarantee each of them is eventually
        :meth:`resolve`-d or :meth:`fail`-ed (or :meth:`abandon`-ed if
        the request is rejected before simulating).  Joined pairs map
        to the future some earlier request registered.  Must be called
        from the event loop thread; contains no awaits.
        """
        warm: Dict[Pair, RunResult] = {}
        joined: Dict[Pair, "asyncio.Future[RunResult]"] = {}
        admitted: List[Pair] = []
        for pair in pairs:
            key = self._key(runner, pair)
            cached = runner.cached(*pair)
            if cached is not None:
                warm[pair] = cached
                self.stats.warm_hits += 1
            elif key in self._inflight:
                joined[pair] = self._inflight[key]
                self.stats.dedup_hits += 1
            else:
                future: "asyncio.Future[RunResult]" = loop.create_future()
                self._inflight[key] = future
                joined[pair] = future
                admitted.append(pair)
                self.stats.admitted += 1
        return warm, joined, admitted

    def resolve(
        self, runner: Runner, workload: str, scheme: str, result: RunResult
    ) -> None:
        """Complete one admitted pair (idempotent), counting it as
        reused when a trace-keyed entry answered it."""
        key = self._key(runner, (workload, scheme))
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)
            if (workload, scheme) in runner.reused:
                self.stats.reused += 1

    def fail(
        self, runner: Runner, pairs: Iterable[Pair], exc: BaseException
    ) -> None:
        """Fail every still-unresolved pair of a crashed sweep.

        Joined requests see the exception instead of hanging — a dead
        request degrades to an error response, never a stuck socket.
        """
        for pair in pairs:
            future = self._inflight.pop(self._key(runner, pair), None)
            if future is not None and not future.done():
                future.set_exception(exc)

    def fail_all(self, exc: BaseException) -> None:
        """Fail every in-flight pair (server shutdown).

        The drain safety net: anything still unresolved when the drain
        deadline expires gets the shutdown exception instead of a hung
        connection.  Must be called from the event loop thread.
        """
        inflight, self._inflight = self._inflight, {}
        for future in inflight.values():
            if not future.done():
                future.set_exception(exc)

    def abandon(self, runner: Runner, pairs: Iterable[Pair]) -> None:
        """Withdraw pairs admitted by a request the server then rejected.

        Cancels their futures so nothing can join a job that will never
        run; called before any simulation is scheduled, so no joiner
        can exist yet besides the rejected request itself.
        """
        for pair in pairs:
            future = self._inflight.pop(self._key(runner, pair), None)
            if future is not None and not future.done():
                future.cancel()
                self.stats.admitted -= 1
