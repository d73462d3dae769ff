"""Experiment harness: scheme registry, runner, result tables."""

from repro.harness.experiment import (
    ExperimentResult,
    run_experiment,
    scaled_records,
)
from repro.harness.runner import Runner
from repro.harness.shards import DrainRequested, ShardLedger, shard_window
from repro.harness.schemes import (
    SchemeContext,
    available_schemes,
    make_scheme,
)
from repro.harness.tables import format_table, reduction_table, speedup_table

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "scaled_records",
    "Runner",
    "DrainRequested",
    "ShardLedger",
    "shard_window",
    "SchemeContext",
    "available_schemes",
    "make_scheme",
    "format_table",
    "reduction_table",
    "speedup_table",
]
