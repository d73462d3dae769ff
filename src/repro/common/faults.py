"""Fault injection for the crash-safety test harness.

``REPRO_FAULT`` arms deterministic faults at named sites in the sweep
and caching machinery so that ``tests/test_fault_injection.py`` can kill
workers, corrupt files mid-write, and plant stale metadata — then assert
that recovery reproduces undisturbed results bit-for-bit.  The spec
grammar is::

    REPRO_FAULT="site:kind@n[,site:kind@n...]"

where ``site`` names an instrumented hook point (``worker``,
``sidecar``, ``trace-npz``, ``shard`` — the last fires after a
shard-ledger boundary commit, path = the boundary state file),
``kind`` is one of

* ``kill``      — SIGKILL the current process (a crashed worker),
* ``raise``     — raise :class:`FaultInjected` (a failed job),
* ``hang``      — sleep ``HANG_SECONDS`` (a wedged worker; finite so a
  leaked process cannot outlive the test run),
* ``truncate``  — chop the file a write hook just produced,
* ``stale``     — overwrite the file with plausible-but-stale bytes
  (both do nothing when a concurrent writer has removed the file),

and ``@n`` fires the fault on the *n*-th arrival at that site (1-based;
default 1).  Counters are per-process; worker initializers call
:func:`reset` so forked pools count their own arrivals.

``REPRO_FAULT_ONCE=<path>`` makes every fault one-shot across process
generations: the latch file is created *before* the fault fires, and any
process that sees it existing skips injection entirely.  Without the
latch, a pool rebuilt after a ``kill`` fault would re-fire it forever.

This lives in ``repro.common`` so leaf modules (trace/plan writers) can
hook it without layering violations.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Optional, Tuple

#: Upper bound on a ``hang`` fault: long enough for supervision
#: deadlines to trip, short enough that a leaked process exits on its
#: own before any CI timeout.
HANG_SECONDS = 60.0

KINDS = ("kill", "raise", "hang", "truncate", "stale")
SITES = ("worker", "sidecar", "trace-npz", "shard")

#: Bytes ``stale`` faults plant: valid-looking JSON with a fingerprint
#: no live run can produce, so staleness checks must reject it.
STALE_BYTES = b'{"fingerprint": "deadbeef-stale-fault"}'


class FaultInjected(RuntimeError):
    """Raised by ``raise``-kind faults (and mangled-write reporting)."""


def _parse(spec: str) -> Dict[str, Tuple[str, int]]:
    """``site:kind@n,...`` -> ``{site: (kind, n)}``; invalid specs raise."""
    plan: Dict[str, Tuple[str, int]] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        site, _, rest = clause.partition(":")
        kind, _, nth = rest.partition("@")
        site, kind = site.strip(), kind.strip()
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (know {SITES})")
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (know {KINDS})")
        count = int(nth) if nth else 1
        if count < 1:
            raise ValueError(f"fault ordinal must be >= 1, got {count}")
        plan[site] = (kind, count)
    return plan


class FaultPlan:
    """Armed faults plus per-process arrival counters."""

    def __init__(self, spec: str, latch: Optional[str] = None) -> None:
        self.spec = spec
        self.latch = latch
        self.faults = _parse(spec)
        self.counts: Dict[str, int] = {}

    def _latched(self) -> bool:
        return self.latch is not None and os.path.exists(self.latch)

    def _set_latch(self) -> None:
        if self.latch is not None:
            # Written BEFORE the fault fires: a kill must not be able to
            # re-arm itself in the replacement worker.
            with open(self.latch, "w") as fh:
                fh.write(self.spec)

    def check(self, site: str, path: Optional[str] = None) -> None:
        """Count an arrival at ``site``; fire its fault when due.

        ``path`` is required for file-mangling kinds (truncate/stale)
        and names the file the caller just finished writing.
        """
        armed = self.faults.get(site)
        if armed is None:
            return
        kind, nth = armed
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if count != nth or self._latched():
            return
        self._set_latch()
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "raise":
            raise FaultInjected(f"injected fault at {site} (arrival {nth})")
        elif kind == "hang":
            time.sleep(HANG_SECONDS)
        elif kind in ("truncate", "stale"):
            if path is None:
                raise FaultInjected(f"{kind} fault at {site} got no path")
            try:
                if kind == "truncate":
                    size = os.path.getsize(path)
                    with open(path, "r+b") as fh:
                        fh.truncate(max(0, size // 2))
                else:
                    with open(path, "wb") as fh:
                        fh.write(STALE_BYTES)
            except FileNotFoundError:
                # A concurrent writer (another worker building the same
                # artifact) already replaced the file's directory:
                # nothing the readers trust is left to damage.
                pass


_PLAN: Optional[FaultPlan] = None
_PLAN_KEY: Optional[Tuple[str, Optional[str]]] = None


def _active_plan() -> Optional[FaultPlan]:
    """The process-wide plan for the current REPRO_FAULT value, if any."""
    global _PLAN, _PLAN_KEY
    spec = os.environ.get("REPRO_FAULT", "")
    latch = os.environ.get("REPRO_FAULT_ONCE") or None
    if not spec.strip():
        _PLAN, _PLAN_KEY = None, None
        return None
    key = (spec, latch)
    if _PLAN is None or _PLAN_KEY != key:
        _PLAN = FaultPlan(spec, latch)
        _PLAN_KEY = key
    return _PLAN


def fire(site: str, path: Optional[str] = None) -> None:
    """Hook point: count an arrival at ``site`` and fire any due fault.

    A no-op (one env lookup) when ``REPRO_FAULT`` is unset — every hook
    site in production code pays only that.
    """
    plan = _active_plan()
    if plan is not None:
        plan.check(site, path)


def reset() -> None:
    """Forget arrival counters (worker initializers call this on fork)."""
    global _PLAN, _PLAN_KEY
    _PLAN, _PLAN_KEY = None, None
