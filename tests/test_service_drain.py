"""Graceful service drain: stop without dropping in-flight work.

The bug this suite pins the fix for: ``ServiceThread.stop()`` (and a
SIGTERM'd foreground server) used to tear the sim pool down under live
sweeps — in-flight work was simply dropped.  Now stop/SIGTERM starts a
*drain*: new ``/sweep`` admissions get 503, in-flight sharded sweeps
park at their next ledgered window boundary, the process exits 0, and
a restarted server resumes from the fsync'd shard ledgers —
scalar-identical to a run that was never interrupted.

Three layers:

* **in-process** — ``ServiceThread.begin_drain()`` mid-stream: shard
  progress events, then an ``error`` line flagged ``draining: true``;
  503 + draining healthz while the drain window is open; ledger
  survives ``stop()``; a restarted thread resumes past the drained
  boundary and matches a direct ``Runner`` run exactly;
* **subprocess** — a real ``scripts/serve_sweeps.py`` server SIGTERM'd
  mid-sweep exits 0 with a drain message, and its restarted successor
  (reached through client retries) finishes the job identically;
* **client** — retry-with-backoff unit behaviour: transient
  classification, full-jitter bound growth, default-off budget.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.runner import _SCALAR_FIELDS, Runner
from repro.harness.shards import shards_dir
from repro.service.client import (
    RETRY_SLEEP_CAP,
    ServiceClient,
    ServiceError,
    _transient,
)
from repro.service.protocol import pair_token
from repro.service.server import ServiceConfig, ServiceThread

RECORDS = 20_000
WINDOW = 1_000
WORKLOAD = "media-streaming"
SCHEME = "acic"
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def drain_env(tmp_path, monkeypatch):
    """Isolated result cache + sharded execution on for the service."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_SHARD_WINDOW", str(WINDOW))
    yield tmp_path


def _scalars(run):
    return {k: getattr(run, k) for k in _SCALAR_FIELDS}


@pytest.fixture(scope="module")
def reference():
    """Direct single-pass scalars for the pair every drain test runs."""
    run = Runner(records=RECORDS, use_disk_cache=False).run(WORKLOAD, SCHEME)
    return _scalars(run)


def _stream_until_drained(client, on_shard_count):
    """Consume a sweep stream, calling back at each shard event.

    Returns (shard_indices, final_event) — final_event is the error or
    done line that closed the stream.
    """
    shards = []
    final = None
    for event in client.sweep_stream([WORKLOAD], [SCHEME]):
        if event["event"] == "shard":
            shards.append(event["shard"])
            on_shard_count(len(shards))
        elif event["event"] in ("error", "done"):
            final = event
    return shards, final


class TestServiceThreadDrain:
    def test_drain_resumes_identical_after_restart(self, reference):
        with ServiceThread(
            ServiceConfig(records=RECORDS, drain_timeout=60.0)
        ) as svc:
            client = ServiceClient(port=svc.port)

            def drain_after_two(count):
                if count == 2:
                    svc.begin_drain()

            shards, final = _stream_until_drained(client, drain_after_two)

            assert len(shards) >= 2, "stream must report shard progress"
            assert shards == list(range(1, len(shards) + 1))
            assert final is not None
            assert final["event"] == "error", (
                "sweep must have been interrupted by the drain, "
                f"got {final}"
            )
            assert final["draining"] is True
            assert "draining" in final["error"]

            # The drain window stays open until stop(): new sweeps are
            # refused and the health endpoint says why.
            with pytest.raises(ServiceError) as excinfo:
                client.sweep([WORKLOAD], [SCHEME])
            assert excinfo.value.status == 503
            health = client.health()
            assert health["status"] == "draining"
            assert health["draining"] is True

        drained_at = max(shards)
        ledgers = list(shards_dir().glob("*.ledger"))
        assert ledgers, "drained boundary state must survive the stop"

        with ServiceThread(
            ServiceConfig(records=RECORDS, drain_timeout=60.0)
        ) as svc:
            client = ServiceClient(port=svc.port)
            resumed = []
            results = []
            for event in client.sweep_stream([WORKLOAD], [SCHEME]):
                if event["event"] == "shard":
                    resumed.append(event["shard"])
                elif event["event"] == "result":
                    results.append(event)
                else:
                    assert event["event"] == "done"
            assert resumed, "restarted sweep must still be sharded"
            assert resumed[0] == drained_at + 1, (
                "restart must resume from the drained ledger boundary, "
                "not recompute from record 0"
            )
            assert len(results) == 1
            assert results[0]["scalars"] == reference
        assert not list(shards_dir().glob("*")), (
            "completed resume must clean the shard ledger"
        )

    def test_drain_with_no_inflight_work_stops_cleanly(self):
        svc = ServiceThread(ServiceConfig(records=RECORDS)).start()
        client = ServiceClient(port=svc.port)
        assert client.health()["status"] == "ok"
        svc.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            client.sweep([WORKLOAD], ["lru"])
        assert excinfo.value.status == 503
        svc.stop()
        assert not svc._thread.is_alive()


class TestForegroundServerSigterm:
    """The full deployment story, subprocess edition."""

    def _spawn(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_RESULT_CACHE"] = str(tmp_path / "results")
        env["REPRO_SHARD_WINDOW"] = str(WINDOW)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                str(REPO / "scripts" / "serve_sweeps.py"),
                "--port",
                "0",
                "--records",
                str(RECORDS),
                "--drain-timeout",
                "60",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines = []

        def pump():
            for line in proc.stdout:
                lines.append(line.rstrip("\n"))

        threading.Thread(target=pump, daemon=True).start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in lines:
                if "listening on http://" in line:
                    port = int(line.rsplit(":", 1)[1])
                    return proc, port, lines
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        proc.kill()
        raise AssertionError(f"server never came up; output: {lines}")

    def test_sigterm_mid_sweep_drains_and_restart_resumes(
        self, drain_env, reference
    ):
        proc, port, lines = self._spawn(drain_env)
        try:
            client = ServiceClient(port=port)

            def sigterm_after_two(count):
                if count == 2:
                    proc.send_signal(signal.SIGTERM)

            shards, final = _stream_until_drained(client, sigterm_after_two)
            assert len(shards) >= 2
            assert final is not None and final["event"] == "error"
            assert final["draining"] is True

            assert proc.wait(timeout=60) == 0, (
                f"drained server must exit 0; output: {lines}"
            )
            assert any("drained; exiting" in line for line in lines)
            assert any("exited cleanly" in line for line in lines)
            assert list(shards_dir().glob("*.ledger"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc2, port2, _lines2 = self._spawn(drain_env)
        try:
            # retries: the restarted server may still be binding when
            # the first request goes out — exactly what the client's
            # backoff exists for.
            client = ServiceClient(port=port2, retries=6)
            response = client.sweep([WORKLOAD], [SCHEME])
            token = pair_token(WORKLOAD, SCHEME)
            assert response["results"][token] == reference
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                assert proc2.wait(timeout=60) == 0
            finally:
                if proc2.poll() is None:
                    proc2.kill()
                    proc2.wait()
        assert not list(shards_dir().glob("*"))


class TestClientRetries:
    def test_default_budget_is_zero(self):
        assert ServiceClient().retries == 0
        assert ServiceClient(retries=2).retries == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(retries=-3)

    def test_transient_classification(self):
        assert _transient(ServiceError(503, "draining"))
        assert _transient(ConnectionRefusedError())
        assert _transient(ConnectionResetError())
        assert _transient(OSError("no route"))
        assert not _transient(ServiceError(500, "sweep failed"))
        assert not _transient(ServiceError(400, "bad request"))
        assert not _transient(socket.timeout("read timed out"))
        assert not _transient(ValueError("nope"))

    def _dead_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_connection_refused_retries_with_jittered_backoff(self):
        sleeps = []
        client = ServiceClient(
            port=self._dead_port(), retries=3, _sleep=sleeps.append
        )
        with pytest.raises(ConnectionError):
            client.health()
        assert len(sleeps) == 3, "one backoff sleep per retry"
        for attempt, slept in enumerate(sleeps):
            assert 0.0 <= slept <= min(
                client.retry_base * (2**attempt), RETRY_SLEEP_CAP
            )

    def test_zero_budget_fails_immediately(self):
        sleeps = []
        client = ServiceClient(
            port=self._dead_port(), retries=0, _sleep=sleeps.append
        )
        with pytest.raises(ConnectionError):
            client.health()
        assert sleeps == []

    def test_503_retried_until_success(self):
        with ServiceThread(ServiceConfig(records=2_000)) as svc:
            sleeps = []
            client = ServiceClient(
                port=svc.port, retries=4, _sleep=sleeps.append
            )
            real = client._connect_once
            calls = []

            def flaky(method, path, payload=None):
                calls.append(path)
                if len(calls) <= 2:
                    raise ServiceError(503, "queue full")
                return real(method, path, payload)

            client._connect_once = flaky
            assert client.health()["status"] == "ok"
            assert len(calls) == 3
            assert len(sleeps) == 2

    def test_non_transient_not_retried(self):
        client = ServiceClient(retries=5, _sleep=lambda s: None)
        calls = []

        def always_400(method, path, payload=None):
            calls.append(path)
            raise ServiceError(400, "bad request")

        client._connect_once = always_400
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 400
        assert len(calls) == 1, "4xx must not be retried"
