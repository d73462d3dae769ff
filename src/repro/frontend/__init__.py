"""Front-end substrate: branch prediction and instruction prefetching.

The evaluation baseline couples the L1i with a fetch-directed
prefetcher (FDP) driven by a BTB + TAGE stack; Section IV-H4 swaps in
the entangling prefetcher.  The stack (:mod:`repro.frontend.stack`)
and the FDP run-ahead are replayed once per trace into a
:mod:`repro.frontend.plan`; the entangling prefetcher runs live in the
timing engine.
"""

from repro.frontend.branch_predictors import BimodalPredictor, TagePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.entangling import EntanglingPrefetcher

__all__ = [
    "BimodalPredictor",
    "TagePredictor",
    "BranchTargetBuffer",
    "EntanglingPrefetcher",
]
