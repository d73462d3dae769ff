"""Blocking client for the sweep service (stdlib ``http.client``).

The test suite, ``scripts/bench_service.py`` and interactive use all
talk to the server through this module, so the wire format has exactly
one reader implementation::

    client = ServiceClient(port=8437)
    response = client.sweep(["x264"], ["lru", "acic"])
    response["results"]["x264::lru"]["cycles"]

    for event in client.sweep_stream(["x264"], ["lru", "acic"]):
        ...  # {"event": "result", ...} lines, then {"event": "done"}

Errors come back as :class:`ServiceError` carrying the HTTP status and
the server's ``error`` message (400 = request rejected by validation,
503 = admission refused the cold work *or* the server is draining for
shutdown, 500 = the sweep itself failed).

**Retries** (off by default): ``retries=N`` makes every request survive
up to ``N`` transient failures: a refused/reset connection (server
restarting) or a 503 (queue full, or draining for shutdown).  Attempts back off
exponentially with *full jitter* — ``sleep ~ U(0, min(base * 2**k,
RETRY_SLEEP_CAP))`` — the decorrelating shape that keeps a fleet of
retrying clients from stampeding a server that just came back.  Any
other error (400, 500, a timeout mid-response) is never retried: those
are deterministic or already-partially-consumed failures.  The default
stays 0 because several callers *assert* on immediate 503s (admission
control is a feature, not a fault); ``bench_service.py`` and the drain
tests opt in explicitly, which is how a sweep in flight survives a
server restart mid-run.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection, HTTPResponse
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Cold sweeps simulate; give them room before declaring the server dead.
DEFAULT_TIMEOUT = 600.0

#: First-attempt backoff bound (seconds); attempt k waits
#: ``U(0, min(RETRY_BASE * 2**k, RETRY_SLEEP_CAP))``.
RETRY_BASE = 0.25

#: Ceiling on any single retry sleep (seconds).
RETRY_SLEEP_CAP = 5.0


class ServiceError(RuntimeError):
    """A non-200 answer from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _error_message(status: int, body: bytes) -> str:
    try:
        payload = json.loads(body)
        return str(payload.get("error", body.decode(errors="replace")))
    except (json.JSONDecodeError, AttributeError):
        return body.decode(errors="replace")


def _transient(exc: BaseException) -> bool:
    """Is this failure worth retrying?

    Connection-level failures (refused while the server restarts, reset
    when it went down mid-handshake) and 503 (admission queue full, or
    draining for shutdown — both mean "try again shortly").  Everything
    else — 400 (the request is wrong), 500 (the sweep deterministically
    failed), timeouts mid-body — stays fatal.
    """
    if isinstance(exc, ServiceError):
        return exc.status == 503
    return isinstance(exc, (ConnectionError, OSError)) and not isinstance(
        exc, TimeoutError
    )


class ServiceClient:
    """One service endpoint; a fresh connection per request."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8437,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = 0,
        retry_base: float = RETRY_BASE,
        _sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        self.retry_base = retry_base
        self._sleep = _sleep  # injectable for tests

    # -- plumbing -----------------------------------------------------------

    def _connect_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[HTTPConnection, HTTPResponse]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        if response.status != 200:
            message = _error_message(response.status, response.read())
            conn.close()
            raise ServiceError(response.status, message)
        return conn, response

    def _open(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[HTTPConnection, HTTPResponse]:
        """Open a request, retrying transient failures within budget.

        Retrying wraps connection setup and the status line only: once
        a 200 response is in hand the caller owns the stream, and a
        failure mid-body is not replayed (the server may have done
        work).  Requests are idempotent server-side — a replayed sweep
        deduplicates against the admission table or resumes its shard
        ledgers — so re-sending after an ambiguous connection failure
        is safe.
        """
        attempt = 0
        while True:
            try:
                return self._connect_once(method, path, payload)
            except Exception as exc:
                if attempt >= self.retries or not _transient(exc):
                    raise
                bound = min(self.retry_base * (2 ** attempt), RETRY_SLEEP_CAP)
                self._sleep(random.uniform(0.0, bound))
                attempt += 1

    def _request_json(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        conn, response = self._open(method, path, payload)
        try:
            return json.loads(response.read())
        finally:
            conn.close()

    @staticmethod
    def _sweep_payload(
        workloads: Iterable[str],
        schemes: Iterable[str],
        records: Optional[int],
        prefetcher: Optional[str],
        machine: Optional[Dict[str, object]],
        stream: bool,
    ) -> dict:
        payload: Dict[str, object] = {
            "workloads": list(workloads),
            "schemes": list(schemes),
        }
        if records is not None:
            payload["records"] = records
        if prefetcher is not None:
            payload["prefetcher"] = prefetcher
        if machine is not None:
            payload["machine"] = machine
        if stream:
            payload["stream"] = True
        return payload

    # -- endpoints ----------------------------------------------------------

    def health(self) -> dict:
        return self._request_json("GET", "/healthz")

    def schemes(self) -> Dict[str, str]:
        return self._request_json("GET", "/schemes")

    def workloads(self) -> List[str]:
        return self._request_json("GET", "/workloads")

    def sweep(
        self,
        workloads: Iterable[str],
        schemes: Iterable[str],
        records: Optional[int] = None,
        prefetcher: Optional[str] = None,
        machine: Optional[Dict[str, object]] = None,
    ) -> dict:
        """Run a grid; blocks until every pair is resolved.

        Returns the full response object: ``results`` maps
        ``workload::scheme`` to the scalar measurements, ``sources``
        says how each pair was satisfied, ``stats`` is the service's
        counter snapshot.
        """
        return self._request_json(
            "POST",
            "/sweep",
            self._sweep_payload(
                workloads, schemes, records, prefetcher, machine, stream=False
            ),
        )

    def sweep_stream(
        self,
        workloads: Iterable[str],
        schemes: Iterable[str],
        records: Optional[int] = None,
        prefetcher: Optional[str] = None,
        machine: Optional[Dict[str, object]] = None,
    ) -> Iterator[dict]:
        """Run a grid, yielding progress events as pairs complete.

        Yields ``{"event": "result", ...}`` objects in completion
        order — interleaved with ``{"event": "shard", ...}`` progress
        lines when the server runs sharded — then one
        ``{"event": "done", ...}``; an ``{"event": "error", ...}``
        object means the sweep failed after the events already yielded
        (``"draining": true`` marks a server shutting down gracefully:
        retry after its restart and it resumes from the shard ledger).
        """
        conn, response = self._open(
            "POST",
            "/sweep",
            self._sweep_payload(
                workloads, schemes, records, prefetcher, machine, stream=True
            ),
        )
        try:
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()
