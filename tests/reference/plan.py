"""The naive frontend-plan builder: the executable reference for ``build_plan``.

:func:`repro.frontend.plan.build_plan` is event-driven and fills the
all-sequential stretches between training records with numpy.  This
module keeps the plain version: one record at a time through a live
:class:`~repro.frontend.stack.BranchStack` and
:class:`reference.fdp.FetchDirectedPrefetcher`, exactly as the
reference engine (``reference/engine.py``) drives them.  ``tests/test_frontend_plan.py`` locks the
production builder to it array for array.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.plan import FrontendPlan, _check_kind, _finish
from repro.frontend.stack import BranchStack
from repro.uarch.params import MachineParams
from repro.workloads.trace import Trace
from reference.fdp import FetchDirectedPrefetcher


def build_plan_reference(
    trace: Trace, machine: MachineParams, prefetcher: str = "fdp"
) -> FrontendPlan:
    """Naive per-record replay through the live stack/FDP objects.

    The oracle the equivalence tests compare
    :func:`~repro.frontend.plan.build_plan` against:
    it drives a real :class:`BranchStack` and
    :class:`reference.fdp.FetchDirectedPrefetcher` exactly as the
    reference engine does, one record at a time.
    """
    _check_kind(prefetcher)
    n = len(trace)
    warmup_end = int(n * machine.warmup_fraction)
    depth = machine.ftq_depth_records if prefetcher == "fdp" else 0
    stack = BranchStack(trace)
    fdp = (
        FetchDirectedPrefetcher(trace, stack, depth=depth)
        if prefetcher == "fdp"
        else None
    )
    kinds = trace.branch_kind_list
    mispredict = np.zeros(n, dtype=np.uint8)
    cand_lo = np.zeros(n, dtype=np.int64)
    cand_hi = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if kinds[i] and stack.retire(i):
            mispredict[i] = 1
        if fdp is not None:
            out = fdp.candidates(i)
            if out:
                cand_hi[i] = fdp._ra
                cand_lo[i] = fdp._ra - len(out)
    return _finish(
        trace, machine, prefetcher, depth, warmup_end, mispredict, cand_lo, cand_hi
    )
