"""The branch-prediction stack: BTB + TAGE + RAS, driven by the trace.

The stack answers one question per trace transition: *would the front
end have followed the path into record j?* — and trains itself as
records retire.  The frontend-plan builder (:mod:`repro.frontend.plan`)
replays it once per trace into the mispredict flags the timing engine
charges and the FDP run-ahead spans it gates; each transition is
evaluated exactly once, with the predictor state current at first
query, and memoised until retirement.
"""

from __future__ import annotations

from typing import Dict

from repro.frontend.branch_predictors import TagePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.workloads.trace import BranchKind, Trace


class BranchStack:
    """Trace-driven BTB + TAGE with per-transition verdict memoisation."""

    def __init__(self, trace: Trace) -> None:
        self.btb = BranchTargetBuffer()
        self.predictor = TagePredictor()
        self._verdicts: Dict[int, bool] = {}
        # List views of the trace arrays: retire/predictable run once per
        # record, and plain-list indexing avoids boxing an ndarray scalar
        # (and the int() around it) on every call.  Kinds and sites are
        # the stack's own, so a plan build leaves no list on the trace
        # but the block view the engine reads anyway.
        self._kinds = trace.branch_kind.tolist()
        self._sites = trace.branch_site.tolist()
        self._blocks = trace.blocks_list

    # -- verdicts -------------------------------------------------------------

    def _evaluate(self, j: int) -> bool:
        kind = self._kinds[j]
        if kind == BranchKind.SEQUENTIAL:
            return True
        if kind == BranchKind.RETURN:
            return True  # return-address stack: effectively perfect
        site = self._sites[j]
        target = self._blocks[j]
        if kind == BranchKind.COND_NOT_TAKEN:
            return not self.predictor.predict(site)
        if kind == BranchKind.COND_TAKEN:
            return bool(
                self.predictor.predict(site) and self.btb.predict(site) == target
            )
        # CALL or INDIRECT: the BTB must produce the right target.
        return self.btb.predict(site) == target

    def predictable(self, j: int) -> bool:
        """Memoised verdict for the transition into record ``j``."""
        verdict = self._verdicts.get(j)
        if verdict is None:
            verdict = self._evaluate(j)
            self._verdicts[j] = verdict
        return verdict

    # -- training -------------------------------------------------------------

    def retire(self, i: int) -> bool:
        """Train with the resolved transition into record ``i``.

        Returns True when the transition had been *mispredicted* (the
        engine charges the flush penalty for those).
        """
        kind = self._kinds[i]
        if kind == BranchKind.SEQUENTIAL:
            return False
        mispredicted = not self.predictable(i)
        site = self._sites[i]
        if kind == BranchKind.COND_TAKEN:
            self.predictor.update(site, True)
            self.btb.update(site, self._blocks[i])
        elif kind == BranchKind.COND_NOT_TAKEN:
            self.predictor.update(site, False)
        elif kind in (BranchKind.CALL, BranchKind.INDIRECT):
            self.btb.update(site, self._blocks[i])
        # RETURN needs no training.
        self._verdicts.pop(i, None)
        return mispredicted
