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
from repro.workloads.trace import Trace, interned_list

#: Bump when the array layout or semantics change (invalidates caches).
PREPASS_FORMAT = 1

#: Array fields persisted per record.
PREPASS_ARRAY_FIELDS = ("set_index", "ghrp_sig", "hawkeye_sig")

#: Registered schemes that consume the pre-pass (sweep warm-task hook).
PREPASS_SCHEMES = ("ghrp", "harmony")

#: Signature geometry of the GHRP and Hawkeye twins, which import it
#: from here.  GHRP signs a 16-block code region with 16 bits (Table
#: IV); Hawkeye signs each block with 13 bits (its 8K-entry predictor).
GHRP_REGION_SHIFT = 4
GHRP_SIG_BITS = 16
HAWKEYE_SIG_BITS = 13


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
    set_index: np.ndarray   # int64, n — block & mask(set_bits)
    ghrp_sig: np.ndarray    # int64, n — fold_hash(block >> region_shift)
    hawkeye_sig: np.ndarray  # int64, n — fold_hash(block)

    def __len__(self) -> int:
        return len(self.set_index)

    # -- hot-loop list views (one interned conversion, as Trace does) ------

    @cached_property
    def set_index_list(self) -> List[int]:
        return interned_list(self.set_index)

    @cached_property
    def ghrp_sig_list(self) -> List[int]:
        return interned_list(self.ghrp_sig)

    @cached_property
    def hawkeye_sig_list(self) -> List[int]:
        return interned_list(self.hawkeye_sig)

    # -- persistence: the codec entry points PREPASS_STORE calls -------------

    def meta(self) -> dict:
        return {
            "format": PREPASS_FORMAT,
            "fingerprint": self.fingerprint,
            "trace_name": self.trace_name,
            "trace_digest": self.trace_digest,
            "set_bits": self.set_bits,
            "ghrp_region_shift": GHRP_REGION_SHIFT,
            "ghrp_sig_bits": GHRP_SIG_BITS,
            "hawkeye_sig_bits": HAWKEYE_SIG_BITS,
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


def prepass_fingerprint(trace: Trace) -> str:
    """Hash of everything the pre-pass content depends on, nothing else."""
    blob = json.dumps(
        {
            "format": PREPASS_FORMAT,
            "trace": trace.digest,
            "set_bits": L1I_SET_BITS,
            "ghrp_region_shift": GHRP_REGION_SHIFT,
            "ghrp_sig_bits": GHRP_SIG_BITS,
            "hawkeye_sig_bits": HAWKEYE_SIG_BITS,
        },
        sort_keys=True,
    )
    return "pre" + hashlib.sha1(blob.encode()).hexdigest()[:12]


def build_replacement_prepass(trace: Trace) -> ReplacementPrepass:
    """One vectorized pass over the trace's block stream."""
    blocks = np.asarray(trace.blocks, dtype=np.int64)
    return ReplacementPrepass(
        trace_name=trace.name,
        trace_digest=trace.digest,
        fingerprint=prepass_fingerprint(trace),
        set_bits=L1I_SET_BITS,
        set_index=blocks & np.int64(mask(L1I_SET_BITS)),
        ghrp_sig=_fold_hash_array(blocks >> GHRP_REGION_SHIFT, GHRP_SIG_BITS),
        hawkeye_sig=_fold_hash_array(blocks, HAWKEYE_SIG_BITS),
    )


#: Lives beside the plans (``REPRO_PLAN_CACHE`` applies); the ``pre``
#: fingerprint prefix keeps the names apart.  Its trace keeps it.
PREPASS_STORE = ArtifactStore(
    "replacement pre-pass",
    ReplacementPrepass,
    PREPASS_ARRAY_FIELDS,
    cache_env="REPRO_PLAN_CACHE",
    cache_subdir="plans",
)

clear_prepass_memo = PREPASS_STORE.clear_memo


def cached_replacement_prepass(
    trace: Trace, use_disk: Optional[bool] = None
) -> ReplacementPrepass:
    """``trace``'s pre-pass, kept by the trace with its list views.

    Served by :data:`PREPASS_STORE`, like
    :func:`repro.frontend.plan.cached_plan`.
    """
    fingerprint = prepass_fingerprint(trace)
    return PREPASS_STORE.for_trace(
        trace,
        entry_name(trace.name, fingerprint),
        lambda: build_replacement_prepass(trace),
        fingerprint=fingerprint,
        use_disk=use_disk,
    )
