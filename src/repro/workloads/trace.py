"""Trace container: the interface between workloads and the simulator.

A trace is a sequence of *fetch records*, one per front-end fetch group
(up to ``fetch_width`` sequential instructions from one block).  Each
record carries the control-flow metadata the branch-prediction stack
needs:

* ``blocks[i]``      — instruction-block id fetched.
* ``instrs[i]``      — instructions consumed by this group (1..16).
* ``branch_kind[i]`` — kind of the control transfer *leading to* record
  ``i`` (see the ``BranchKind`` constants).
* ``branch_site[i]`` — static id (int64) of the branch instruction that
  caused a non-sequential transfer (-1 for sequential flow).

Traces are deterministic functions of (profile, length, seed) and are
cached on disk under ``.cache/traces`` by :data:`TRACE_STORE` (see
:mod:`repro.common.artifacts`): an ``.npz`` per key plus an mmap
sidecar, so repeated bench runs do not regenerate them and resident
sweep workers share one page cache per workload.  A process that keeps
a profile's walk resident (see :mod:`repro.workloads.profiles`) cuts
that profile's traces from it ahead of this cache, and saves none.  A
generated trace that ends where its walk does is saved with the walk's
growth state (``walk_state``, one JSON meta member), so a process
without that walk can resume it instead of walking from record 0.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.common.artifacts import ArtifactStore

#: The trace's bulk arrays, as the cache stores them.
TRACE_ARRAY_FIELDS = ("blocks", "instrs", "branch_kind", "branch_site")


class BranchKind:
    """Control-transfer kinds, stored per fetch record."""

    SEQUENTIAL = 0       # fall-through / same-block continuation
    COND_TAKEN = 1       # conditional branch, taken
    COND_NOT_TAKEN = 2   # conditional branch, fell through to a new block
    CALL = 3             # direct call
    RETURN = 4           # return (RAS-predictable)
    INDIRECT = 5         # indirect jump/call (dispatch)

    ALL = (SEQUENTIAL, COND_TAKEN, COND_NOT_TAKEN, CALL, RETURN, INDIRECT)
    CONDITIONAL = (COND_TAKEN, COND_NOT_TAKEN)


def interned_list(values: np.ndarray) -> List[int]:
    """``values.tolist()`` with one boxed int per distinct value.

    Per-record id streams repeat a few thousand values (a W10 trace of
    160k records touches ~9k blocks and ~600 GHRP signatures), yet
    ``tolist()`` boxes a fresh int per record: 32 bytes each beside the
    list's 8-byte slot.  The cached list views of traces and
    replacement pre-passes are built here, so a resident one holds each
    value once.
    """
    distinct, index = np.unique(values, return_inverse=True)
    # An object-array gather hands out the very objects it indexes.
    return distinct.astype(object)[index].tolist()


@dataclass(eq=False)
class Trace:
    """Struct-of-arrays fetch-record trace; hashed by identity, as the
    key its artifacts live under (``ArtifactStore.for_trace``)."""

    name: str
    blocks: np.ndarray       # int64
    instrs: np.ndarray       # uint8
    branch_kind: np.ndarray  # uint8
    branch_site: np.ndarray  # int64, -1 when sequential
    seed: int = 0
    # A weak reference to the walk this trace was cut from (see ``walk``).
    _walk: Optional[weakref.ref] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The JSON growth state of the walk this trace ends, saved with it
    #: (see :meth:`repro.workloads.generator.Walk.state`), else None.
    walk_state: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def walk(self):
        """The :class:`~repro.workloads.generator.Walk` this trace is a
        prefix of, while that walk lives, else None.

        Set on the traces a walk cuts: frontend plans of a walk's traces
        are cut from one plan (see :func:`repro.frontend.plan.cached_plan`).
        Held weakly, so a trace does not keep alive a walk (and its
        program) that the walk memo has dropped.  ``dataclasses.replace``,
        :meth:`slice` and loads leave it None.
        """
        return None if self._walk is None else self._walk()

    @walk.setter
    def walk(self, walk) -> None:
        self._walk = weakref.ref(walk)

    def __post_init__(self) -> None:
        n = len(self.blocks)
        for field in ("instrs", "branch_kind", "branch_site"):
            if len(getattr(self, field)) != n:
                raise ValueError(
                    f"trace '{self.name}': {field} length "
                    f"{len(getattr(self, field))} != blocks length {n}"
                )

    def __len__(self) -> int:
        return len(self.blocks)

    # -- hot-loop list views --------------------------------------------------
    #
    # The timing engine and prefetchers index these arrays once per
    # fetch record; plain-list indexing avoids boxing an ndarray scalar
    # per access.  Cached so each conversion happens once per trace no
    # matter how many components share it, and interned (see
    # ``interned_list``) so a resident trace keeps one int per value.

    @cached_property
    def blocks_list(self) -> List[int]:
        return interned_list(self.blocks)

    @cached_property
    def instrs_list(self) -> List[int]:
        return interned_list(self.instrs)

    @cached_property
    def branch_kind_list(self) -> List[int]:
        return interned_list(self.branch_kind)

    @cached_property
    def branch_site_list(self) -> List[int]:
        return interned_list(self.branch_site)

    @cached_property
    def digest(self) -> str:
        """Content hash of the trace arrays (plus name and seed).

        Derived-data caches (e.g. frontend plans) key on this rather
        than on (name, records, seed) alone, so ad-hoc traces that reuse
        a name can never alias each other's cache entries.
        """
        h = hashlib.sha1()
        h.update(self.name.encode())
        h.update(str(self.seed).encode())
        for array in (self.blocks, self.instrs, self.branch_kind, self.branch_site):
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    @property
    def total_instructions(self) -> int:
        return int(self.instrs.sum())

    @property
    def unique_blocks(self) -> int:
        return int(np.unique(self.blocks).size)

    @property
    def footprint_bytes(self) -> int:
        from repro.common.bitops import BLOCK_BYTES

        return self.unique_blocks * BLOCK_BYTES

    def mpki_of(self, misses: int) -> float:
        """Misses-per-kilo-instruction for this trace."""
        instructions = self.total_instructions
        if instructions == 0:
            raise ValueError(f"trace '{self.name}' is empty")
        return 1000.0 * misses / instructions

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-based sub-trace (warmup splitting, tests)."""
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            blocks=self.blocks[start:stop],
            instrs=self.instrs[start:stop],
            branch_kind=self.branch_kind[start:stop],
            branch_site=self.branch_site[start:stop],
            seed=self.seed,
        )

    # -- persistence: the codec entry points TRACE_STORE calls --------------

    def meta(self) -> dict:
        meta = {"name": self.name, "seed": self.seed}
        if self.walk_state is not None:
            meta["walk"] = self.walk_state
        return meta

    @classmethod
    def from_parts(cls, meta: dict, arrays: dict) -> "Trace":
        trace = cls(name=str(meta["name"]), seed=int(meta["seed"]), **arrays)
        trace.walk_state = meta.get("walk")
        return trace

    def save(self, path: Path) -> None:
        TRACE_STORE.save(self, path)

    @classmethod
    def load(cls, path: Path) -> "Trace":
        return TRACE_STORE.read_npz(path)

    @classmethod
    def load_mmap(cls, dirpath: Path) -> "Trace":
        return TRACE_STORE.read_sidecar(dirpath)


#: Traces stay on disk even under ``REPRO_NO_DISK_CACHE`` and are not
#: memoised here: the harness keeps its own per-workload contexts.
TRACE_STORE = ArtifactStore(
    "trace",
    Trace,
    TRACE_ARRAY_FIELDS,
    cache_env="REPRO_TRACE_CACHE",
    cache_subdir="traces",
    scalar_meta=True,
    npz_fault_site="trace-npz",
)


#: Expected array dtypes (the generator's contract with the simulator).
_EXPECTED_DTYPES = {
    "blocks": np.int64,
    "instrs": np.uint8,
    "branch_kind": np.uint8,
    "branch_site": np.int64,
}


def validate_trace(trace: Trace) -> list[str]:
    """Structural sanity checks; returns a list of problems (empty = ok)."""
    problems = []
    for field, expected in _EXPECTED_DTYPES.items():
        actual = getattr(trace, field).dtype
        if actual != np.dtype(expected):
            problems.append(
                f"{field} dtype is {actual}, expected {np.dtype(expected)}"
            )
    if len(trace) == 0:
        problems.append("empty trace")
        return problems
    if trace.instrs.min() < 1:
        problems.append("fetch record with zero instructions")
    from repro.common.bitops import INSTRS_PER_BLOCK

    if trace.instrs.max() > INSTRS_PER_BLOCK:
        problems.append(
            f"fetch record with more than {INSTRS_PER_BLOCK} instructions"
        )
    if trace.branch_kind.max() > BranchKind.INDIRECT:
        problems.append("unknown branch kind")
    nonseq = trace.branch_kind != BranchKind.SEQUENTIAL
    if bool((trace.branch_site[nonseq] < 0).any()):
        problems.append("non-sequential transfer without a branch site")
    if bool((trace.branch_site[~nonseq] != -1).any()):
        problems.append("sequential transfer carrying a branch site")
    return problems
