"""Replacement policies for the set-associative cache model.

Everything the paper compares against lives here:

* :class:`LRUPolicy` — the baseline.
* :class:`TreePLRUPolicy` — hardware pseudo-LRU (extra ablation).
* :class:`SRRIPPolicy` — re-reference interval prediction.
* :class:`SHiPPolicy` — signature-based hit prediction over SRRIP.
* :class:`FlatHawkeyeScheme` — Hawkeye's OPT-learning replacement,
  Harmony flavour for prefetch.
* :class:`FlatGHRPScheme` — global-history dead-block prediction (the
  state-of-the-art i-cache policy ACIC is measured against).
* :class:`FlatOPTScheme` — Belady's OPT, the oracle upper bound.
* :class:`FlatLRUScheme` — LRU on the same fused path.

The four ``Flat*`` classes are fused hot-path schemes following the
``FlatACICScheme`` pattern: they implement the L1I scheme protocol
directly and own their policy state (the registry builds them for
``ghrp``/``harmony``/``lru``/``36kb-l1i``/``40kb-l1i``/``opt``).  The
readable GHRP, Hawkeye and Belady-OPT policies live in
``tests/reference/policies.py``; ``tests/test_policy_differential.py``
pins each twin bit-identical to its readable reference.
"""

from repro.mem.policies.base import ReplacementPolicy
from repro.mem.policies.flat_ghrp import FlatGHRPScheme
from repro.mem.policies.flat_hawkeye import FlatHawkeyeScheme
from repro.mem.policies.flat_plain import FlatLRUScheme, FlatOPTScheme
from repro.mem.policies.lru import LRUPolicy
from repro.mem.policies.plru import TreePLRUPolicy
from repro.mem.policies.ship import SHiPPolicy
from repro.mem.policies.srrip import SRRIPPolicy

__all__ = [
    "ReplacementPolicy",
    "FlatGHRPScheme",
    "FlatHawkeyeScheme",
    "FlatLRUScheme",
    "FlatOPTScheme",
    "LRUPolicy",
    "TreePLRUPolicy",
    "SHiPPolicy",
    "SRRIPPolicy",
]
