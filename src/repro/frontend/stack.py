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

from dataclasses import dataclass
from typing import Dict

from repro.frontend.branch_predictors import TagePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.workloads.trace import BranchKind, Trace


@dataclass
class BranchStackStats:
    conditional_branches: int = 0
    conditional_correct: int = 0
    btb_transfers: int = 0
    btb_correct: int = 0
    mispredicted_transitions: int = 0


class BranchStack:
    """Trace-driven BTB + TAGE with per-transition verdict memoisation."""

    def __init__(
        self,
        trace: Trace,
        btb: BranchTargetBuffer | None = None,
        predictor: TagePredictor | None = None,
    ) -> None:
        self.trace = trace
        self.btb = btb or BranchTargetBuffer()
        self.predictor = predictor or TagePredictor()
        self.stats = BranchStackStats()
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
        if mispredicted:
            self.stats.mispredicted_transitions += 1
        site = self._sites[i]
        target = self._blocks[i]
        if kind == BranchKind.COND_TAKEN:
            self.stats.conditional_branches += 1
            if self.predictor.update(site, True):
                self.stats.conditional_correct += 1
            self.btb.update(site, target)
        elif kind == BranchKind.COND_NOT_TAKEN:
            self.stats.conditional_branches += 1
            if not self.predictor.update(site, False):
                self.stats.conditional_correct += 1
        elif kind in (BranchKind.CALL, BranchKind.INDIRECT):
            self.stats.btb_transfers += 1
            if self.btb.predict(site) == target:
                self.stats.btb_correct += 1
            self.btb.update(site, target)
        # RETURN needs no training.
        self._verdicts.pop(i, None)
        return mispredicted
