"""Property-based workload search: close the Figure 11 gap by *searching*.

The reproduction's biggest open correctness gap is Figure 11: on the
hand-calibrated synthetic profiles ACIC recovers only ~6% of OPT's MPKI
headroom versus the paper's 55.85%, almost certainly because the
generator's default structure lacks what ACIC exploits on datacenter
traces.  Rather than hand-tuning more profiles, this package lifts the
generator's knob space into a hypothesis-style *strategy space* and
searches it:

* :mod:`strategies` — seeded, serializable, composable strategies over
  ``ProgramShape`` + ``WalkParams`` (including the structural knobs
  added for this search: deep call chains, interpreter-dispatch
  indirect fan-out, RPC-style cross-group interleaving), drawn into
  fingerprinted :class:`~repro.workloads.search.strategies.ProfileSpec`
  values with stable, tracked reprs;
* :mod:`shrink` — a terminating greedy shrinker that reduces a winning
  spec to a *minimal* profile still reproducing its score direction;
* :mod:`registry` — the scenario registry: found profiles persist as
  first-class tracked workloads under ``profiles/found/`` (loaded by
  :func:`repro.workloads.profiles.get_workload`) plus the ratchet file
  recording the best ACIC-vs-OPT share achieved so far;
* :mod:`harness` — the search driver behind
  ``scripts/search_workloads.py``.

Scoring goes through :mod:`repro.harness.scoring`, i.e. the ordinary
``Runner`` machinery: candidate results land in the fingerprinted
result cache, so re-scoring a previously-seen spec is warm in any
process — which is also how a killed search resumes.
"""

from repro.workloads.search.registry import (
    found_profiles_dir,
    load_found_profiles,
    read_ratchet,
    save_found_profile,
    write_ratchet,
)
from repro.workloads.search.shrink import ShrinkResult, shrink_spec
from repro.workloads.search.strategies import (
    FIG11_SPACE,
    ProfileSpace,
    ProfileSpec,
    get_space,
)

__all__ = [
    "FIG11_SPACE",
    "ProfileSpace",
    "ProfileSpec",
    "ShrinkResult",
    "found_profiles_dir",
    "get_space",
    "load_found_profiles",
    "read_ratchet",
    "save_found_profile",
    "shrink_spec",
    "write_ratchet",
]
