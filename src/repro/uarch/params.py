"""Machine parameters (Table II) and timing-model configuration.

The paper's core model is Sunny-Cove-like: 6-wide fetch with a 24-entry
fetch target queue, 60-entry decode queue, 352-entry ROB, TAGE + 8K BTB,
32 KB/8-way L1i (4 cycles), 512 KB L2 (15), 2 MB L3 (35), DDR4-3200.

Our timing model is front-end-centric (the fluid model of
:mod:`repro.uarch.timing`): each fetch
record costs one front-end cycle; i-cache misses stall fetch for the
hierarchy latency minus whatever the decode-queue backlog lets the
backend hide; mispredicted branches flush the pipe.  The parameters
below are the knobs of that model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class MachineParams:
    """Table II machine + timing-model constants."""

    fetch_width: int = 6
    decode_queue_instrs: int = 60
    backend_ipc: float = 5.0
    branch_mispredict_penalty: int = 12
    l1i_hit_latency: int = 4       # pipelined; throughput 1 group/cycle
    mshr_entries: int = 16
    ftq_depth_records: int = 40    # FDP run-ahead (~FTQ of 24 targets)
    warmup_fraction: float = 0.10  # Section IV-A: first 10% warms up
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.backend_ipc <= 0:
            raise ValueError("widths must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )

    def fingerprint(self) -> str:
        """Content hash over every field, for cache keys.

        Used wherever derived data depends on the *whole* machine —
        sweep-result cache entries and shard ledgers.  Frontend plans deliberately use the
        narrower :func:`repro.frontend.plan.frontend_fingerprint`
        instead.  Computed once per instance: every field is frozen.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha1(blob.encode()).hexdigest()[:10]


#: The baseline 32 KB, 8-way L1 i-cache of Table II.
BASELINE_L1I = CacheConfig(32 * 1024, 8, name="L1i")

#: The "just add SRAM" comparison point: 36 KB, 9-way (Section IV-F).
LARGER_L1I_36K = CacheConfig(36 * 1024, 9, name="L1i-36K")

#: The 40 KB, 10-way variant listed in Table IV.
LARGER_L1I_40K = CacheConfig(40 * 1024, 10, name="L1i-40K")

DEFAULT_MACHINE = MachineParams()
