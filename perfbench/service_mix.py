"""The ``service-mix`` workload: warm reads beside cold writes.

``scripts/serve_sweeps.py --port 0 --max-concurrent 1`` runs as a
subprocess against isolated caches: one sim thread, so cold sweeps queue
behind each other and hold the server's GIL against its event loop.
``--sim-threads 2`` runs the server's shipped default of two sim threads
instead; two cold sweeps then build artifacts side by side and can hit
the artifact temp-file race (see README.md).
Set-up starts it, waits for ``/healthz`` and primes a 3-workload x
lru/acic/opt grid at 20k records; that is done three times (the first
two servers are stopped) and the median is ``setup_s``.

Two closed-loop client threads then replay seeded schedules.  In every
block of ten requests one is *cold*: one W10 workload (each client
cycles through all ten in its own order) x lru/acic at a record count
near 20k that no other request uses, so the server builds its trace and
both results, and its frontend plan unless an earlier request's trace
came out identical.  The other nine are *warm* re-requests of the whole
primed grid.  The seed picks the primed workloads, each client's cold
workload order, the cold record counts and where in each block the cold
request falls.  Clients never retry (``retries=0``); every non-200
counts as failed, and the notes name each failure's error (an artifact
temp-file collision between the two sim threads shows up there).

Outside the timed region every response is checked against a direct
in-process ``Runner.sweep`` of the same pairs: all warm responses and a
seeded sample of the cold ones (all of them in the traced run, which
also supplies the per-layer spans).
"""

from __future__ import annotations

import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from common import (
    ROOT,
    WORK_DIR,
    Bench,
    Isolation,
    Tracer,
    median,
    peak_rss_mb,
    reset_artifact_memos,
    tail,
)
from sweeps import W10, fidelity, layer_metrics, layer_targets, scalars

WARM_RECORDS = 20_000
WARM_SCHEMES = ("lru", "acic", "opt")
COLD_SCHEMES = ("lru", "acic")
CLIENTS = 2
#: Requests per client per ``--seconds``: about the rate two clients
#: sustain on a 2-core host, so a run lasts roughly ``--seconds``.
REQUESTS_PER_CLIENT_PER_S = 40
#: Per-layer metrics of the sweep engine that this load does not drive.
NOT_EXERCISED = (
    *(f"uarch.{kind}.{s}" for kind in ("ns_per_record", "engine_self_ns_per_record")
      for s in ("lru", "acic", "opt", "ghrp", "harmony")),
    "core.acic.ns_per_op", "core.acic.ops", "core.acic.admit_ratio",
    "core.acic.ifilter_hit_ratio", "core.acic.cshr_resolve_ratio",
    "core.acic.l1i_miss_ratio",
    *(f"mem.{s}.{m}" for s in ("lru", "opt", "ghrp", "harmony")
      for m in ("ns_per_op", "ops", "l1i_miss_ratio")),
    "harness.parallel_efficiency",
)
SERVER_STARTS = 3
#: Cold responses re-simulated for checking in an untraced run.
COLD_CHECKS = 12
HEALTHZ_PROBES = 50
WARM_LOOKUPS = 270


class Server:
    """One ``serve_sweeps.py`` subprocess; ``stop`` drains and reaps it."""

    def __init__(self, log_path, sim_threads: int) -> None:
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "scripts/serve_sweeps.py", "--port", "0",
             "--records", str(WARM_RECORDS), "--max-concurrent", str(sim_threads)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        deadline = time.monotonic() + 60
        self.port = None
        while self.port is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                elif not line:
                    break
            if time.monotonic() > deadline or self.proc.poll() is not None:
                break
        if self.port is None:
            self.stop()
            raise RuntimeError(f"sweep server did not start; see {log_path}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def schedule(
    rng: random.Random, requests: int, warm_workloads, cold_workloads, cold_records
) -> List[tuple]:
    """One client's requests: (kind, workloads, schemes, records)."""
    plan = []
    for block in range(0, requests, 10):
        cold_at = rng.randrange(10)
        for i in range(block, min(block + 10, requests)):
            if i - block == cold_at:
                workload = cold_workloads[(block // 10) % len(cold_workloads)]
                plan.append(("cold", (workload,), COLD_SCHEMES, next(cold_records)))
            else:
                plan.append(("warm", tuple(warm_workloads), WARM_SCHEMES, WARM_RECORDS))
    return plan


class ServiceMixBench(Bench):
    def __init__(self, *args, sim_threads: int = 1) -> None:
        super().__init__(*args)
        self.sim_threads = sim_threads

    def run(self) -> None:
        from repro.service.client import ServiceClient

        rng = random.Random(self.seed)
        warm_workloads = rng.sample(W10, 3)
        per_client = REQUESTS_PER_CLIENT_PER_S * self.seconds
        n_cold = CLIENTS * -(-per_client // 10)
        cold_records = iter(WARM_RECORDS + off for off in rng.sample(range(1, 4000), n_cold))
        schedules = [
            schedule(
                random.Random(rng.random()), per_client, warm_workloads,
                rng.sample(W10, len(W10)), cold_records,
            )
            for _ in range(CLIENTS)
        ]

        iso = Isolation(self.workload)
        try:
            setups, server = [], None
            for i in range(SERVER_STARTS):
                if server is not None:
                    server.stop()
                start = time.perf_counter()
                iso.phase(f"server{i}")
                server = Server(iso.dir / f"server{i}.log", self.sim_threads)
                client = ServiceClient(port=server.port, retries=0, timeout=120)
                client.health()
                client.sweep(warm_workloads, WARM_SCHEMES, records=WARM_RECORDS)
                setups.append(time.perf_counter() - start)
            self.e2e["setup_s"] = median(setups)

            healthz = []
            for _ in range(HEALTHZ_PROBES):
                start = time.perf_counter()
                before = client.health()["stats"]
                healthz.append(1000.0 * (time.perf_counter() - start))
            outcomes: List[List[tuple]] = [[] for _ in range(CLIENTS)]
            barrier = threading.Barrier(CLIENTS + 1)

            def drive(plan, out) -> None:
                me = ServiceClient(port=server.port, retries=0, timeout=120)
                barrier.wait()
                for req in plan:
                    start = time.perf_counter()
                    try:
                        resp, status = me.sweep(req[1], req[2], records=req[3]), 200
                    except Exception as exc:  # counted, never retried
                        resp, status = str(exc), getattr(exc, "status", -1)
                    out.append((req, time.perf_counter() - start, status, resp))

            threads = [
                threading.Thread(target=drive, args=(plan, out))
                for plan, out in zip(schedules, outcomes)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            start = time.perf_counter()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            after = client.health()["stats"]
            server.stop()
            server = None
            self.e2e["peak_rss_mb"] = peak_rss_mb()

            done = [o for out in outcomes for o in out]
            self._load_metrics(done, wall)
            self.layers.update(
                {
                    "service.healthz_p50_ms": median(healthz),
                    "service.warm_hits": after["warm_hits"] - before["warm_hits"],
                    "service.dedup_hits": after["dedup_hits"] - before["dedup_hits"],
                    "service.admitted": after["admitted"] - before["admitted"],
                    "harness.timed_wall_s": wall,
                }
            )
            self._check(iso, done, warm_workloads)
        finally:
            if server is not None:
                server.stop()
            changed = iso.close()
            if changed:
                self.fail(f"repo .cache changed during the run: {changed[:5]}")
        self.layers.update(dict.fromkeys(NOT_EXERCISED, 0))

    def _load_metrics(self, done, wall: float) -> None:
        self.attempted = len(done)
        ok = [o for o in done if o[2] == 200]
        statuses: Dict[int, int] = {}
        for o in done:
            statuses[o[2]] = statuses.get(o[2], 0) + 1
        self.failed += len(done) - len(ok)
        lat = {kind: [1000.0 * o[1] for o in ok if o[0][0] == kind] for kind in ("warm", "cold")}
        simulated = sum(
            o[0][3] * sum(1 for src in o[3]["sources"].values() if src == "simulated")
            for o in ok
        )
        self.e2e["requests_per_s"] = len(ok) / wall
        self.e2e["records_per_s"] = simulated / wall
        # Cold latency is end to end; warm latency is a service-layer
        # metric (see README.md, "End-to-end metrics").
        for kind, into in (("cold", self.e2e), ("warm", self.layers)):
            prefix = "" if kind == "cold" else "service."
            into[f"{prefix}{kind}_p50_ms"] = median(lat[kind])
            value, pct, n = tail(lat[kind])
            into[f"{prefix}{kind}_tail_ms"] = value
            self.notes.append(f"{kind} tail = p{pct:g} of {n} requests")
        self.layers["service.rejected_503"] = statuses.get(503, 0)
        self.layers["service.errors_500"] = statuses.get(500, 0)
        self.notes.append(
            f"{len(done)} requests in {wall:.2f} s with {self.sim_threads} sim thread(s), "
            f"HTTP statuses {dict(sorted(statuses.items()))}"
        )
        for o in done:
            if o[2] != 200:
                self.notes.append(f"failed {o[0][0]} request {o[0][1]}@{o[0][3]}: {o[3]}")

    def _check(self, iso, done, warm_workloads) -> None:
        """Compare responses with direct in-process runs of the same pairs."""
        from repro.harness.runner import Runner
        from repro.service.protocol import pair_token

        iso.phase("verify")
        reset_artifact_memos()
        tracer = Tracer()
        cold = [o for o in done if o[2] == 200 and o[0][0] == "cold"]
        if not self.traced:
            cold = random.Random(self.seed ^ 0x5EED).sample(cold, min(COLD_CHECKS, len(cold)))
        start = time.perf_counter()
        with tracer.patch(layer_targets() if self.traced else []):
            expected = Runner(records=WARM_RECORDS).sweep(warm_workloads, WARM_SCHEMES)
            checks: List[Tuple[tuple, dict, dict]] = [
                (o[0], o[3], expected) for o in done if o[2] == 200 and o[0][0] == "warm"
            ]
            for o in cold:
                (_kind, workloads, schemes, records) = o[0]
                with tracer.span("harness.request", request=f"{workloads[0]}@{records}"):
                    direct = Runner(records=records).sweep(workloads, schemes)
                checks.append((o[0], o[3], direct))
        traced_wall = time.perf_counter() - start
        for req, resp, direct in checks:
            for w in req[1]:
                for s in req[2]:
                    got = resp["results"].get(pair_token(w, s))
                    if got != scalars(direct[(w, s)]):
                        self.fail(f"{req[0]} {w}/{s}@{req[3]}: response differs from direct run")
        self.notes.append(f"checked {len(checks)} responses against direct runs")
        self.layers.update(fidelity(expected, {w: w for w in warm_workloads}, warm_workloads))

        lookups = []
        pairs = [(w, s) for w in warm_workloads for s in WARM_SCHEMES]
        for i in range(WARM_LOOKUPS):
            runner = Runner(records=WARM_RECORDS)
            w, s = pairs[i % len(pairs)]
            start = time.perf_counter()
            runner.cached(w, s)
            lookups.append(1e6 * (time.perf_counter() - start))
        self.layers["harness.warm_lookup_us"] = median(lookups)
        if self.traced:
            self.layers.update(layer_metrics(tracer, traced_wall))
            WORK_DIR.mkdir(exist_ok=True)
            tracer.write(WORK_DIR / f"spans.{self.workload}.seed{self.seed}.jsonl")
