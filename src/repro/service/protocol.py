"""Wire schema and validation for the sweep service.

One endpoint does the work — ``POST /sweep`` with a JSON body::

    {
      "workloads":  ["x264", "gcc"],          # required, registered names
      "schemes":    ["lru", "acic"],          # required, registered names
      "records":    20000,                     # optional, server default
      "prefetcher": "fdp",                     # optional: fdp|entangling|none
      "machine":    {"fetch_width": 8},        # optional flat MachineParams
                                               #   overrides (no "hierarchy")
      "stream":     false                      # optional: chunked progress
    }

A non-streaming response is one JSON object::

    {"results": {"x264::lru": {<scalars>}, ...},
     "sources": {"x264::lru": "warm"|"inflight"|"simulated", ...},
     "stats":   {<service counters>}}

A pair's source is ``warm`` when the result cache held it at admission,
``inflight`` when it joined a concurrent request's pair, and
``simulated`` when this request admitted it: its sweep then answered it
by a simulation or from a result cache layer, the trace-keyed entry of
another length that cuts the same trace included (the ``reused``
counter of ``stats`` counts those).

A streaming response (``"stream": true``) is chunked
``application/x-ndjson`` — one JSON object per line, results in
completion order so clients see cold-pair progress as it happens::

    {"event": "result", "workload": "x264", "scheme": "lru",
     "source": "simulated", "scalars": {...}}
    {"event": "done", "pairs": 4, "stats": {...}}

(an ``{"event": "error", "error": "..."}`` line terminates a stream
that failed mid-flight).  With sharded execution active on the server
(``REPRO_SHARD_WINDOW``), streams additionally carry one progress line
per completed shard window of each admitted pair::

    {"event": "shard", "workload": "x264", "scheme": "lru",
     "shard": 3, "records_done": 60000, "records_total": 100000}

A server that is *draining* (SIGTERM received; in-flight shards running
to their next ledgered boundary) refuses every new ``/sweep`` with 503
— clients retry against the restarted server, which resumes from the
persisted shard ledgers (see :mod:`repro.harness.shards`).  The scalar
fields are exactly the runner's
disk-cache schema (:data:`repro.harness.runner._SCALAR_FIELDS`), so a
served result is bit-identical to what ``Runner.sweep`` returns.

Validation is the service's first admission gate: unknown workloads,
schemes, prefetchers, machine fields or top-level keys are rejected
with :class:`ProtocolError` (HTTP 400) *before* any simulation or
queueing happens — a malformed request must never cost a trace build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.harness.experiment import PREFETCHERS
from repro.harness.runner import _SCALAR_FIELDS
from repro.harness.schemes import available_schemes
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult
from repro.workloads.profiles import workload_table

#: Maximum request body the server will read (64 KiB is ~3000 pairs —
#: far beyond any sane grid; anything larger is rejected up front).
MAX_BODY_BYTES = 64 * 1024

#: Top-level request keys the schema knows.
_ALLOWED_KEYS = frozenset(
    {"workloads", "schemes", "records", "prefetcher", "machine", "stream"}
)

#: MachineParams fields a request may override: every flat scalar knob.
#: ``hierarchy`` is a nested config — overriding it over the wire would
#: need its own schema; pin the default until a request needs it.
_MACHINE_FIELDS = frozenset(
    f.name for f in dataclass_fields(MachineParams) if f.name != "hierarchy"
)


class ProtocolError(ValueError):
    """An invalid sweep request; the server answers HTTP 400."""


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep request."""

    workloads: Tuple[str, ...]
    schemes: Tuple[str, ...]
    records: Optional[int]
    prefetcher: str
    machine: MachineParams
    stream: bool

    def pairs(self) -> List[Tuple[str, str]]:
        """The request's unique (workload, scheme) pairs, grid order."""
        return list(
            dict.fromkeys(
                (w, s) for w in self.workloads for s in self.schemes
            )
        )


def _names(
    payload: Dict[str, object], key: str, known: Mapping[str, object], kind: str
) -> Tuple[str, ...]:
    """The request's list under ``key``, each name a key of ``known``
    (whose names are listed, sorted, only in the error)."""
    value = payload.get(key)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(item, str) for item in value)
    ):
        raise ProtocolError(f"{key!r} must be a non-empty list of strings")
    for name in value:
        if name not in known:
            raise ProtocolError(
                f"unknown {kind} {name!r}; known: {', '.join(sorted(known))}"
            )
    return tuple(value)


def _machine(payload: Dict[str, object]) -> MachineParams:
    overrides = payload.get("machine")
    if overrides is None:
        return DEFAULT_MACHINE
    if not isinstance(overrides, dict):
        raise ProtocolError("'machine' must be an object of field overrides")
    unknown = set(overrides) - _MACHINE_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown machine field(s) {sorted(unknown)}; "
            f"known: {sorted(_MACHINE_FIELDS)}"
        )
    for name, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"machine field {name!r} must be a number")
    try:
        return replace(DEFAULT_MACHINE, **overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid machine parameters: {exc}") from exc


def parse_sweep_request(raw: bytes) -> SweepRequest:
    """Validate a ``POST /sweep`` body into a :class:`SweepRequest`."""
    if len(raw) > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("body must be a JSON object")
    unknown = set(payload) - _ALLOWED_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown request key(s) {sorted(unknown)}; "
            f"known: {sorted(_ALLOWED_KEYS)}"
        )

    # workload_table() includes the committed search discoveries
    # (profiles/found/), so clients can sweep them like any calibrated
    # workload.
    workloads = _names(payload, "workloads", workload_table(), "workload")
    schemes = _names(payload, "schemes", available_schemes(), "scheme")

    records = payload.get("records")
    if records is not None:
        if isinstance(records, bool) or not isinstance(records, int):
            raise ProtocolError("'records' must be an integer")
        if records < 1000:
            raise ProtocolError(
                f"'records' must be >= 1000 (warmup needs a prefix), "
                f"got {records}"
            )

    prefetcher = payload.get("prefetcher", "fdp")
    if prefetcher not in PREFETCHERS:
        raise ProtocolError(
            f"unknown prefetcher {prefetcher!r}; known: {PREFETCHERS}"
        )

    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        raise ProtocolError("'stream' must be a boolean")

    return SweepRequest(
        workloads=workloads,
        schemes=schemes,
        records=records,
        prefetcher=prefetcher,
        machine=_machine(payload),
        stream=stream,
    )


def pair_token(workload: str, scheme: str) -> str:
    """The ``workload::scheme`` key results are reported under."""
    return f"{workload}::{scheme}"


def scalars_of(result: RunResult) -> Dict[str, object]:
    """A result's scalar measurements, in the disk-cache schema."""
    return {name: getattr(result, name) for name in _SCALAR_FIELDS}


def result_event(
    workload: str, scheme: str, source: str, result: RunResult
) -> Dict[str, object]:
    """One streamed progress line for a completed pair."""
    return {
        "event": "result",
        "workload": workload,
        "scheme": scheme,
        "source": source,
        "scalars": scalars_of(result),
    }


def shard_event(
    workload: str,
    scheme: str,
    shard: int,
    records_done: int,
    records_total: int,
) -> Dict[str, object]:
    """One streamed progress line for a completed shard window."""
    return {
        "event": "shard",
        "workload": workload,
        "scheme": scheme,
        "shard": shard,
        "records_done": records_done,
        "records_total": records_total,
    }


def encode_jsonl(obj: Dict[str, object]) -> bytes:
    """One newline-terminated JSON line of the streaming response."""
    return (json.dumps(obj) + "\n").encode()
