"""The paper's contribution: the Admission-Controlled Instruction Cache.

* :class:`IFilter` — the 16-entry burst-absorbing buffer (Section II).
* :class:`FlatCSHR` — comparison status holding registers (Section III-B/C).
* :class:`TwoLevelAdmissionPredictor` — the HRT + PT predictor
  (Section III-A), with global-history and bimodal ablation variants.
* :class:`FlatACICScheme` — the assembled mechanism (Figures 2-8) on
  array-backed structures, the controller the scheme registry builds.
  Its readable twin lives test-side in ``tests/reference/acic.py``,
  locked bit-for-bit by ``tests/test_acic_differential.py``.
"""

from repro.core.cshr import CSHRStats, FlatCSHR
from repro.core.flat import ACICStats, AdmissionAudit, FlatACICScheme
from repro.core.ifilter import IFilter
from repro.core.predictor import (
    AdmissionPredictor,
    BimodalAdmissionPredictor,
    GlobalHistoryAdmissionPredictor,
    TwoLevelAdmissionPredictor,
)

__all__ = [
    "ACICStats",
    "AdmissionAudit",
    "CSHRStats",
    "FlatCSHR",
    "FlatACICScheme",
    "IFilter",
    "AdmissionPredictor",
    "BimodalAdmissionPredictor",
    "GlobalHistoryAdmissionPredictor",
    "TwoLevelAdmissionPredictor",
]
