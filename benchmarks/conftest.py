"""Shared benchmark fixtures.

Every figure/table bench pulls runs from one session-scoped caching
:class:`Runner` (plus a second one for the entangling-prefetcher
baseline of Figures 20/21), so the expensive simulations are executed
once per session and shared across benches — and persisted in the disk
result cache across sessions.  The workload lists and bench helpers
the modules import live in ``bench_support.py``.

Trace length honours ``REPRO_SCALE`` (1.0 = the 160k-record default).
Benches print paper-style tables; run with ``-s`` to see them, e.g.::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.harness.runner import Runner


@pytest.fixture(scope="session")
def runner() -> Runner:
    """FDP-baseline runner (the paper's default platform)."""
    return Runner(prefetcher="fdp")


@pytest.fixture(scope="session")
def runner_entangling() -> Runner:
    """Entangling-prefetcher baseline (Section IV-H4)."""
    return Runner(prefetcher="entangling")
