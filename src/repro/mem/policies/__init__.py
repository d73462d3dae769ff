"""Replacement policies for the set-associative cache model.

Everything the paper compares against lives here:

* :class:`LRUPolicy` — the baseline.
* :class:`TreePLRUPolicy` — hardware pseudo-LRU (extra ablation).
* :class:`SRRIPPolicy` — re-reference interval prediction.
* :class:`SHiPPolicy` — signature-based hit prediction over SRRIP.
* :class:`HawkeyePolicy` — OPT-learning (Harmony flavour for prefetch).
* :class:`GHRPPolicy` — global-history dead-block prediction (the
  state-of-the-art i-cache policy ACIC is measured against).
* :class:`BeladyOPTPolicy` — the oracle upper bound.

Four of them also have fused hot-path twins following the
``FlatACICScheme`` pattern — :class:`FlatGHRPScheme`,
:class:`FlatHawkeyeScheme`, :class:`FlatLRUScheme` and
:class:`FlatOPTScheme` implement the L1I scheme protocol directly (the
registry builds them for ``ghrp``/``harmony``/``lru``/``36kb-l1i``/
``40kb-l1i``/``opt``), pinned bit-identical to the readable policies
above by ``tests/test_policy_differential.py``.
"""

from repro.mem.policies.base import ReplacementPolicy
from repro.mem.policies.belady import BeladyOPTPolicy
from repro.mem.policies.flat_ghrp import FlatGHRPScheme
from repro.mem.policies.flat_hawkeye import FlatHawkeyeScheme
from repro.mem.policies.flat_plain import FlatLRUScheme, FlatOPTScheme
from repro.mem.policies.ghrp import GHRPPolicy
from repro.mem.policies.hawkeye import HawkeyePolicy
from repro.mem.policies.lru import LRUPolicy
from repro.mem.policies.plru import TreePLRUPolicy
from repro.mem.policies.ship import SHiPPolicy
from repro.mem.policies.srrip import SRRIPPolicy

__all__ = [
    "ReplacementPolicy",
    "BeladyOPTPolicy",
    "FlatGHRPScheme",
    "FlatHawkeyeScheme",
    "FlatLRUScheme",
    "FlatOPTScheme",
    "GHRPPolicy",
    "HawkeyePolicy",
    "LRUPolicy",
    "TreePLRUPolicy",
    "SHiPPolicy",
    "SRRIPPolicy",
]
