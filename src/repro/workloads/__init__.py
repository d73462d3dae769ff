"""Workload substrate: synthetic programs, walkers, calibrated profiles.

The paper evaluates on QEMU full-system traces of 10 datacenter
applications and 5 SPEC2017 codes; this package substitutes calibrated
synthetic equivalents (the argument is in the module docstring of
:mod:`repro.workloads.profiles`).
"""

from repro.workloads.generator import WalkParams, generate_trace
from repro.workloads.profiles import (
    ALL_WORKLOADS,
    DATACENTER_WORKLOADS,
    SPEC_WORKLOADS,
    WorkloadProfile,
    get_workload,
)
from repro.workloads.program import ProgramShape, SyntheticProgram, build_program
from repro.workloads.trace import BranchKind, Trace, validate_trace

__all__ = [
    "WalkParams",
    "generate_trace",
    "ALL_WORKLOADS",
    "DATACENTER_WORKLOADS",
    "SPEC_WORKLOADS",
    "WorkloadProfile",
    "get_workload",
    "ProgramShape",
    "SyntheticProgram",
    "build_program",
    "BranchKind",
    "Trace",
    "validate_trace",
]
