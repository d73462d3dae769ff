"""Shared replacement pre-pass: per-record signatures and set indices.

The flat replacement-policy twins (:mod:`repro.mem.policies.flat_ghrp`,
:mod:`repro.mem.policies.flat_hawkeye`) spend part of every demand
access hashing the block address — GHRP's 16-bit region signature and
Hawkeye's 13-bit predictor signature are both ``fold_hash`` of a pure
function of the block, and the set index is a mask of it.  All of that
is a pure function of the *trace*, so one vectorized numpy pass
precomputes it per workload and every (scheme, record) pair simply
indexes by ``t`` instead of hashing per access.

The result is cached by :data:`PREPASS_STORE` (see
:mod:`repro.common.artifacts`) as ``<trace>.pre<hash>.npz`` in the plan
cache directory, so sweep workers map the parent-built arrays instead
of recomputing them N times.

The arrays are only valid for the *demand* stream (record ``t``
accesses ``trace.blocks[t]``); prefetch fills carry arbitrary blocks
and keep the policies' memo-hash fallback, as does a twin whose cache
geometry differs from the pre-pass's.  ``REPRO_NO_DISK_CACHE=1``
applies exactly as it does to plans.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.common.artifacts import ArtifactStore, entry_name
from repro.common.bitops import _GOLDEN64, L1I_SET_BITS, mask
from repro.workloads.trace import Trace

#: Bump when the array layout or semantics change (invalidates caches).
PREPASS_FORMAT = 1

#: Array fields persisted per record.
PREPASS_ARRAY_FIELDS = ("set_index", "ghrp_sig", "hawkeye_sig")

#: Registered schemes that consume the pre-pass (sweep warm-task hook).
PREPASS_SCHEMES = ("ghrp", "harmony")

#: Default geometry — must match the policies the registry builds.
DEFAULT_SET_BITS = L1I_SET_BITS
DEFAULT_GHRP_REGION_SHIFT = 4
DEFAULT_GHRP_SIG_BITS = 16
DEFAULT_HAWKEYE_SIG_BITS = 13


def _fold_hash_array(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bitops.fold_hash` over an array."""
    with np.errstate(over="ignore"):  # uint64 wrap-around is the point
        mixed = values.astype(np.uint64) * np.uint64(_GOLDEN64)
    return (mixed >> np.uint64(64 - bits)).astype(np.int64)


@dataclass
class ReplacementPrepass:
    """Per-record precomputed replacement-policy inputs for one trace."""

    trace_name: str
    trace_digest: str
    fingerprint: str
    set_bits: int
    ghrp_region_shift: int
    ghrp_sig_bits: int
    hawkeye_sig_bits: int
    set_index: np.ndarray   # int64, n — block & mask(set_bits)
    ghrp_sig: np.ndarray    # int64, n — fold_hash(block >> region_shift)
    hawkeye_sig: np.ndarray  # int64, n — fold_hash(block)

    def __len__(self) -> int:
        return len(self.set_index)

    # -- hot-loop list views (one bulk conversion, as Trace/plans do) -------

    @cached_property
    def set_index_list(self) -> List[int]:
        return self.set_index.tolist()

    @cached_property
    def ghrp_sig_list(self) -> List[int]:
        return self.ghrp_sig.tolist()

    @cached_property
    def hawkeye_sig_list(self) -> List[int]:
        return self.hawkeye_sig.tolist()

    # -- persistence: the codec entry points PREPASS_STORE calls -------------

    def meta(self) -> dict:
        return {
            "format": PREPASS_FORMAT,
            "fingerprint": self.fingerprint,
            "trace_name": self.trace_name,
            "trace_digest": self.trace_digest,
            "set_bits": self.set_bits,
            "ghrp_region_shift": self.ghrp_region_shift,
            "ghrp_sig_bits": self.ghrp_sig_bits,
            "hawkeye_sig_bits": self.hawkeye_sig_bits,
            "records": len(self),
        }

    @classmethod
    def from_parts(cls, meta: dict, arrays: dict) -> "ReplacementPrepass":
        if int(meta["format"]) != PREPASS_FORMAT:
            raise ValueError(
                f"prepass format {meta['format']} != {PREPASS_FORMAT}"
            )
        n = int(meta["records"])
        if any(len(arrays[name]) != n for name in PREPASS_ARRAY_FIELDS):
            raise ValueError("inconsistent prepass array lengths")
        return cls(
            trace_name=str(meta["trace_name"]),
            trace_digest=str(meta["trace_digest"]),
            fingerprint=str(meta["fingerprint"]),
            set_bits=int(meta["set_bits"]),
            ghrp_region_shift=int(meta["ghrp_region_shift"]),
            ghrp_sig_bits=int(meta["ghrp_sig_bits"]),
            hawkeye_sig_bits=int(meta["hawkeye_sig_bits"]),
            **arrays,
        )

    def save(self, path: Path) -> None:
        PREPASS_STORE.save(self, path)

    @classmethod
    def load(cls, path: Path) -> "ReplacementPrepass":
        return PREPASS_STORE.read_npz(path)

    @classmethod
    def load_mmap(cls, dirpath: Path) -> "ReplacementPrepass":
        return PREPASS_STORE.read_sidecar(dirpath)


def prepass_fingerprint(
    trace: Trace,
    set_bits: int = DEFAULT_SET_BITS,
    ghrp_region_shift: int = DEFAULT_GHRP_REGION_SHIFT,
    ghrp_sig_bits: int = DEFAULT_GHRP_SIG_BITS,
    hawkeye_sig_bits: int = DEFAULT_HAWKEYE_SIG_BITS,
) -> str:
    """Hash of everything the pre-pass content depends on, nothing else."""
    blob = json.dumps(
        {
            "format": PREPASS_FORMAT,
            "trace": trace.digest,
            "set_bits": set_bits,
            "ghrp_region_shift": ghrp_region_shift,
            "ghrp_sig_bits": ghrp_sig_bits,
            "hawkeye_sig_bits": hawkeye_sig_bits,
        },
        sort_keys=True,
    )
    return "pre" + hashlib.sha1(blob.encode()).hexdigest()[:12]


def build_replacement_prepass(
    trace: Trace,
    set_bits: int = DEFAULT_SET_BITS,
    ghrp_region_shift: int = DEFAULT_GHRP_REGION_SHIFT,
    ghrp_sig_bits: int = DEFAULT_GHRP_SIG_BITS,
    hawkeye_sig_bits: int = DEFAULT_HAWKEYE_SIG_BITS,
) -> ReplacementPrepass:
    """One vectorized pass over the trace's block stream."""
    blocks = np.asarray(trace.blocks, dtype=np.int64)
    return ReplacementPrepass(
        trace_name=trace.name,
        trace_digest=trace.digest,
        fingerprint=prepass_fingerprint(
            trace, set_bits, ghrp_region_shift, ghrp_sig_bits,
            hawkeye_sig_bits,
        ),
        set_bits=set_bits,
        ghrp_region_shift=ghrp_region_shift,
        ghrp_sig_bits=ghrp_sig_bits,
        hawkeye_sig_bits=hawkeye_sig_bits,
        set_index=blocks & np.int64(mask(set_bits)),
        ghrp_sig=_fold_hash_array(blocks >> ghrp_region_shift, ghrp_sig_bits),
        hawkeye_sig=_fold_hash_array(blocks, hawkeye_sig_bits),
    )


#: Lives beside the plans (``REPRO_PLAN_CACHE`` applies); the ``pre``
#: fingerprint prefix keeps the names apart.  A sweep touches a handful
#: of workloads at once.
PREPASS_STORE = ArtifactStore(
    "replacement pre-pass",
    ReplacementPrepass,
    PREPASS_ARRAY_FIELDS,
    memo_cap=8,
    cache_env="REPRO_PLAN_CACHE",
    cache_subdir="plans",
)

clear_prepass_memo = PREPASS_STORE.clear_memo


def cached_replacement_prepass(
    trace: Trace, use_disk: Optional[bool] = None
) -> ReplacementPrepass:
    """Memoised + disk-cached pre-pass for ``trace`` (default geometry).

    Served by :data:`PREPASS_STORE`, like
    :func:`repro.frontend.plan.cached_plan`.
    """
    fingerprint = prepass_fingerprint(trace)
    return PREPASS_STORE.get(
        entry_name(trace.name, fingerprint),
        lambda: build_replacement_prepass(trace),
        fingerprint=fingerprint,
        records=len(trace),
        use_disk=use_disk,
    )
