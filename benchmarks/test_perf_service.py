"""Service-path performance: warm request throughput, cold latency, dedup.

Not a paper artifact.  Times the sweep service end to end — HTTP parse,
admission, cache lookup, JSON encode — against an isolated temporary
result cache.  Correctness is asserted (every timed response is checked
against a direct sweep); wall-clock numbers are printed, with only
generous sanity floors asserted so loaded CI boxes don't flake.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from bench_support import once

from repro.harness.runner import _SCALAR_FIELDS, Runner
from repro.service.client import ServiceClient
from repro.service.protocol import pair_token
from repro.service.server import ServiceConfig, ServiceThread

RECORDS = 4_000
WORKLOADS = ("x264", "gcc")
SCHEMES = ("lru", "srrip")
WARM_REQUESTS = 100


@pytest.fixture(autouse=True)
def _isolated_artifacts(tmp_path, monkeypatch):
    """A pool's warm saves a walk and plan past the length asked, which
    the committed caches do not hold: keep them out of the repo."""
    for var in ("REPRO_TRACE_CACHE", "REPRO_PLAN_CACHE"):
        monkeypatch.setenv(var, str(tmp_path / var.lower()))


def _expected():
    runner = Runner(records=RECORDS, use_disk_cache=False)
    return {
        pair_token(w, s): {k: getattr(r, k) for k in _SCALAR_FIELDS}
        for (w, s), r in runner.sweep(WORKLOADS, SCHEMES).items()
    }


def test_warm_requests_per_second(benchmark, tmp_path, monkeypatch):
    """Warm grids are answered from cache at interactive rates."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    expected = _expected()
    with ServiceThread(ServiceConfig(records=RECORDS)) as svc:
        client = ServiceClient(port=svc.port)
        cold = client.sweep(WORKLOADS, SCHEMES)
        assert cold["results"] == expected

        def hammer():
            for _ in range(WARM_REQUESTS):
                response = client.sweep(WORKLOADS, SCHEMES)
            return response

        start = time.perf_counter()
        last = once(benchmark, hammer)
        elapsed = time.perf_counter() - start
    assert last["results"] == expected
    assert set(last["sources"].values()) == {"warm"}
    rate = WARM_REQUESTS / elapsed
    print(f"\nwarm service throughput: {rate:,.0f} requests/sec")
    # Warm requests never simulate; even a slow box clears 20/sec.
    assert rate > 20


def test_cold_latency_and_dedup_amortisation(benchmark, tmp_path, monkeypatch):
    """Cold end-to-end latency, and N concurrent duplicates ~ 1 sweep."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    expected = _expected()
    with ServiceThread(ServiceConfig(records=RECORDS)) as svc:
        client = ServiceClient(port=svc.port)

        def cold_then_duplicates():
            start = time.perf_counter()
            first = client.sweep(WORKLOADS, SCHEMES)
            cold_secs = time.perf_counter() - start

            # Evict nothing: duplicates are warm now, so measure the
            # dedup path on a second, colder grid instead — N clients
            # ask for it at once and the service simulates it once.
            grid = (("media-streaming",), SCHEMES)
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=4) as pool:
                dupes = list(
                    pool.map(lambda _: client.sweep(*grid), range(4))
                )
            dupes_secs = time.perf_counter() - start
            return first, cold_secs, dupes, dupes_secs

        first, cold_secs, dupes, dupes_secs = once(
            benchmark, cold_then_duplicates
        )
    assert first["results"] == expected
    assert set(first["sources"].values()) == {"simulated"}
    for response in dupes:
        assert response["results"] == dupes[0]["results"]
    stats = dupes[0]["stats"]
    print(
        f"\ncold end-to-end: {cold_secs * 1000:,.0f} ms "
        f"({len(expected)} pairs); 4 duplicate clients: "
        f"{dupes_secs * 1000:,.0f} ms total"
    )
    # The duplicate grid has 2 pairs; 4 clients x 2 pairs = 8 requests'
    # worth of work, of which at most 2 may simulate.
    assert stats["admitted"] <= len(expected) + 2, (
        "concurrent duplicate grids must dedupe, not re-simulate"
    )
