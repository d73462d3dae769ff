"""ACIC: Admission-Controlled Instruction Cache — full reproduction.

A pure-Python, trace-driven reproduction of the HPCA 2023 paper
"ACIC: Admission-Controlled Instruction Cache" (arXiv 2211.10480),
including the simulation substrate (set-associative caches, replacement
policies, branch-prediction stack, instruction prefetchers, memory
hierarchy), the ACIC mechanism itself (i-Filter + CSHR + two-level
admission predictor), every baseline the paper compares against, the
synthetic datacenter workload generators, and a benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import run_experiment
    result = run_experiment("media-streaming", "acic")
    print(result.mpki, result.ipc)

See README.md and ARCHITECTURE.md for the full tour.
"""

from typing import Any

__version__ = "1.0.0"

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "available_schemes",
    "DATACENTER_WORKLOADS",
    "SPEC_WORKLOADS",
    "__version__",
]

_LAZY_EXPORTS = {
    "ExperimentResult": ("repro.harness.experiment", "ExperimentResult"),
    "run_experiment": ("repro.harness.experiment", "run_experiment"),
    "available_schemes": ("repro.harness.schemes", "available_schemes"),
    "DATACENTER_WORKLOADS": ("repro.workloads.profiles", "DATACENTER_WORKLOADS"),
    "SPEC_WORKLOADS": ("repro.workloads.profiles", "SPEC_WORKLOADS"),
}


def __getattr__(name: str) -> Any:
    """Lazily resolve the public API to keep ``import repro`` light.

    Substrate subpackages (``repro.mem``, ``repro.core``...) can be
    imported directly without pulling in the whole harness.
    """
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
