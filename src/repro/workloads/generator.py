"""Trace generation: walking a synthetic program.

The walker executes the static program of :mod:`repro.workloads.program`
at *fetch-group* granularity: every visited 64-byte block (16
instructions) emits three 6/6/4-instruction fetch records, plus extra
same-block records for intra-block control flow and loop iterations.
Control-flow decisions (request mix, branch outcomes, loop trip counts)
come from a seeded RNG, so a (program, walk, seed) triple is a fully
deterministic trace.

Dynamic semantics:

* request dispatch — a Markov chain over request groups (self-transition
  bias models bursty request mixes).  A request enters the group's root
  handler, then executes a random number of *phases*, each walking one
  group member chosen with a Zipf-like bias (members early in the pool
  are the hot "parse/validate/respond" code; the tail is cold error/
  admin paths).  Dispatch transfers are *indirect* (BTB-hostile), as in
  real server event loops.
* calls/returns — static call sites; returns are RAS-predictable.
* loops — geometric trip counts; nested loop/skip ops run only on the
  first iteration (repeat iterations are straight-line), while nested
  *calls* execute on every iteration (loops calling hot library code is
  the main source of short temporal reuse).
* conditional skips — per-site taken bias, drawn each visit.
* intra-block re-fetch — with probability ``regroup_prob`` per block a
  short intra-block taken branch restarts fetch within the block,
  emitting extra same-block records (the distance-0 mass of Fig. 1a).

Where a walk stops: the record budget (``target_records``) is checked
only between requests, so a walk for ``T`` records ends at the first
*request entry* at or past ``T`` — the record fetched through
``program.dispatch_site``, a site nothing else uses.  Independently,
emission stops hard at :func:`emission_limit` (``T + max(16384, T)``),
possibly mid-request.  Nothing else depends on ``T``, so a trace of any
length is a prefix of the program's one walk for that seed: :class:`Walk`
keeps that walk, grows it request by request on demand (resuming from
its last request entry) and serves each length as a cut of it.

A walk's growth state (:meth:`Walk.state`) saved with a trace that ends
where the walk does lets another process continue that walk
(:meth:`Walk.resume`): it cuts every shorter length from the saved
records and grows past them without walking from record 0.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.common.bitops import fold_hash
from repro.workloads.program import (
    OP_BRSKIP,
    OP_CALL,
    OP_LOOP,
    SyntheticProgram,
    return_site,
)
from repro.workloads.trace import BranchKind, Trace

#: Fetch-group instruction split for a fully-executed 16-instruction block.
_FULL_BLOCK_GROUPS = (6, 6, 4)

#: Site-id namespace for per-group phase-dispatch indirect branches;
#: far above the ``fid << 12`` space used by function-local sites.
_PHASE_SITE_BASE = 1 << 30

#: The single interpreter-style dispatch-loop site: one static indirect
#: branch fanning out over the whole hot-function pool (BTB-hostile,
#: the bytecode-interpreter / virtual-call pattern of managed runtimes).
_INTERP_SITE = 1 << 35


class _WalkBudgetExhausted(Exception):
    """Internal: the walk hit its hard emission cutoff mid-request."""


@dataclass(frozen=True)
class WalkParams:
    """Dynamic-behaviour knobs for the walker."""

    target_records: int = 200_000
    request_self_transition: float = 0.5
    phases: Tuple[int, int] = (3, 6)
    member_zipf: float = 2.0
    cold_phase_prob: float = 0.0
    regroup_prob: float = 0.35
    regroup_mean: float = 2.0
    full_block_prob: float = 0.45
    two_group_prob: float = 0.25
    exec_noise: float = 0.08
    max_call_depth: int = 24
    max_loop_iters: int = 64
    #: Interpreter-dispatch-like indirect fan-out: after each phase this
    #: many hot functions run, each entered through the *single* global
    #: ``_INTERP_SITE`` indirect branch (one site, many targets).
    dispatch_fanout: int = 0
    #: RPC-style cross-group interleaving: per phase, probability that
    #: the request instead executes a handler of a *different* group
    #: (a cross-service call touching that service's code mid-request).
    rpc_interleave_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.target_records <= 0:
            raise ValueError("target_records must be positive")
        if not 0.0 <= self.request_self_transition < 1.0:
            raise ValueError("request_self_transition must be in [0, 1)")
        if self.phases[0] < 0 or self.phases[1] < self.phases[0]:
            raise ValueError(f"bad phases range {self.phases}")
        if self.member_zipf < 1.0:
            raise ValueError("member_zipf must be >= 1.0")
        if not 0.0 <= self.regroup_prob <= 1.0:
            raise ValueError("regroup_prob must be a probability")
        if not 0.0 <= self.cold_phase_prob <= 1.0:
            raise ValueError("cold_phase_prob must be a probability")
        if self.full_block_prob + self.two_group_prob > 1.0:
            raise ValueError("block execution-length probabilities exceed 1")
        if not 0.0 <= self.exec_noise <= 1.0:
            raise ValueError("exec_noise must be a probability")
        if self.dispatch_fanout < 0:
            raise ValueError("dispatch_fanout must be non-negative")
        if not 0.0 <= self.rpc_interleave_prob <= 1.0:
            raise ValueError("rpc_interleave_prob must be a probability")


#: Column dtypes, in ``TRACE_ARRAY_FIELDS`` order.
_COLUMN_DTYPES = (np.int64, np.uint8, np.uint8, np.int64)


def emission_limit(records: int) -> int:
    """The hard emission cutoff of a walk for ``records`` records.

    The record budget is otherwise checked only between requests, and an
    adversarial parameter point (the workload search explores deep call
    chains whose loops re-issue calls every iteration) can make a
    *single* request emit combinatorially many records.  The slack sits
    far above the worst between-request overshoot any calibrated profile
    shows (~4.6k records), so their walks never trip it.
    """
    return records + max(16384, records)


class Walk:
    """One (program, params, seed) walk, grown on demand.

    ``params.target_records`` is ignored: :meth:`trace` takes the length.
    Walked records live in read-only typed arrays that every returned
    trace views.  The walk grows one request at a time; before each
    request it notes the request entry's index and the state that
    request starts from (RNG state, current group, cold cursor, pending
    branch kind/site), so a walk cut off mid-request by the emission
    limit resumes from that entry.  Every trace it returns carries it as
    ``trace.walk``.  Not thread-safe: callers sharing a walk serialise
    access to it.
    """

    def __init__(
        self, program: SyntheticProgram, params: WalkParams, seed: int
    ) -> None:
        #: None for a resumed walk until it first grows.
        self.program: Optional[SyntheticProgram] = program
        self._build_program: Optional[Callable[[], SyntheticProgram]] = None
        #: The trace a resumed walk was resumed from, else None.
        self.saved: Optional[Trace] = None
        self.params = params
        self.seed = seed
        self.rng = random.Random(seed)
        #: Records walked before the growth in progress, as typed arrays.
        self._columns = tuple(np.empty(0, dtype=d) for d in _COLUMN_DTYPES)
        # The growth in progress collects into lists (cheap appends).
        self.blocks: List[int] = []
        self.instrs: List[int] = []
        self.kinds: List[int] = []
        self.sites: List[int] = []
        # Transition state for the *next* emitted record.
        self._pending_kind = BranchKind.SEQUENTIAL
        self._pending_site = -1
        # Cold-path cursor: cold functions are consumed round-robin with
        # a random stride, so each one recurs only after the whole pool
        # cycles (very long reuse distances).
        self._cold_cursor = 0
        self._group = self.rng.randrange(len(program.groups))
        #: Index of every request entry walked so far, ascending.
        self._entries: List[int] = []
        #: State the last request entry starts from: RNG state, group,
        #: cold cursor, pending branch kind and site.
        self._entry_state: tuple = ()
        #: True when the last growth hit the emission limit mid-request.
        self._cut_off = False
        # Emission cutoff, relative to the growth in progress.
        self._limit = 0

    def __len__(self) -> int:
        return len(self._columns[0])

    # -- saved state ----------------------------------------------------------

    def _snapshot(self) -> tuple:
        """The state the next record is walked from: RNG state, group,
        cold cursor, pending branch kind and site."""
        return (
            self.rng.getstate(),
            self._group,
            self._cold_cursor,
            self._pending_kind,
            self._pending_site,
        )

    def _restore(self, snapshot: tuple) -> None:
        state, self._group, self._cold_cursor, kind, site = snapshot
        self.rng.setstate(state)
        self._pending_kind, self._pending_site = kind, site

    def state(self) -> str:
        """This walk's growth state, as JSON: its request entries, the
        snapshots at its last entry and at its end, and whether it is cut
        off.  Saved with a trace that ends where the walk does, it lets
        :meth:`resume` continue the walk from that trace."""
        return json.dumps(
            {
                "entries": self._entries,
                "entry": self._entry_state,
                "end": self._snapshot(),
                "cut_off": self._cut_off,
            }
        )

    @classmethod
    def resume(
        cls,
        trace: Trace,
        params: WalkParams,
        build_program: Callable[[], SyntheticProgram],
    ) -> "Walk":
        """The walk ``trace`` was saved from, continued.

        ``trace`` carries the walk's :meth:`state` (``trace.walk_state``)
        and ends where the walk did.  Its arrays are the resumed walk's
        records, so every length they cover is cut without walking;
        ``build_program`` runs only when the walk first grows.  The walk
        keeps ``trace`` as :attr:`saved`, so the plan saved with it serves
        as the walk's longest plan (see
        :func:`repro.frontend.plan.cached_plan`).  Raises ``ValueError``
        when the state is missing or malformed.
        """
        try:
            state = json.loads(trace.walk_state)
            entries = [int(i) for i in state["entries"]]
            entry, end = (_snapshot_of(state[k]) for k in ("entry", "end"))
            cut_off = bool(state["cut_off"])
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ValueError(
                f"trace {trace.name!r} carries no usable walk state"
            ) from exc
        walk = cls.__new__(cls)
        walk.program, walk._build_program = None, build_program
        walk.saved = trace
        walk.params, walk.seed = params, trace.seed
        walk.rng = random.Random()
        walk._columns = (
            trace.blocks, trace.instrs, trace.branch_kind, trace.branch_site
        )
        walk.blocks, walk.instrs, walk.kinds, walk.sites = [], [], [], []
        walk._restore(end)
        walk._entries = entries
        walk._entry_state = entry
        walk._cut_off = cut_off
        walk._limit = 0
        return walk

    # -- growth ---------------------------------------------------------------

    def _grow(self, records: int) -> None:
        """Walk on until the first request entry at or past ``records``,
        or until its emission limit (the walk is then cut off)."""
        if self.program is None:
            self.program = self._build_program()
        if self._cut_off:
            # Re-walk the cut-off request from its entry.
            start = self._entries.pop()
            self._columns = tuple(c[:start] for c in self._columns)
            self._restore(self._entry_state)
            self._cut_off = False
        self._limit = emission_limit(records) - len(self)
        try:
            self._run(records)
        except _WalkBudgetExhausted:
            # A pathological parameter point blew the per-request
            # budget; the walk holds ``emission_limit(records)`` records
            # and is cut off mid-request.
            self._cut_off = True
        segment = (self.blocks, self.instrs, self.kinds, self.sites)
        self._columns = tuple(
            np.concatenate((column, np.asarray(values, dtype=column.dtype)))
            if len(column)
            else np.asarray(values, dtype=column.dtype)
            for column, values in zip(self._columns, segment)
        )
        for column in self._columns:
            column.flags.writeable = False
        self.blocks, self.instrs, self.kinds, self.sites = [], [], [], []

    def _end(self, records: int) -> Optional[int]:
        """Where the trace of ``records`` records ends, or None when the
        walk is too short to tell."""
        limit = emission_limit(records)
        entries = self._entries
        i = bisect_left(entries, records)
        if i < len(entries):
            return min(entries[i], limit)
        n = len(self)
        if not self._cut_off:
            # The walk stopped at a request entry: the next request
            # would start at ``n``.
            return min(n, limit) if n >= records else None
        # The last request runs past ``n``, so past any limit <= n.
        return limit if n >= limit else None

    def covers(self, records: int) -> bool:
        """Whether the trace of ``records`` records is cut without
        growing the walk."""
        return self._end(records) is not None

    def trace(self, records: int, name: str = "synthetic") -> Trace:
        """The trace of ``records`` records: a prefix of this walk,
        grown first if it is too short."""
        end = self._end(records)
        if end is None:
            self._grow(records)
            end = self._end(records)
        blocks, instrs, kinds, sites = (c[:end] for c in self._columns)
        trace = Trace(
            name=name,
            blocks=blocks,
            instrs=instrs,
            branch_kind=kinds,
            branch_site=sites,
            seed=self.seed,
        )
        trace.walk = self
        return trace

    # -- emission -------------------------------------------------------------

    def _emit(self, block: int, n_instrs: int) -> None:
        if len(self.blocks) >= self._limit:
            raise _WalkBudgetExhausted
        self.blocks.append(block)
        self.instrs.append(n_instrs)
        self.kinds.append(self._pending_kind)
        self.sites.append(self._pending_site)
        self._pending_kind = BranchKind.SEQUENTIAL
        self._pending_site = -1

    def _branch_to(self, kind: int, site: int) -> None:
        """Arm the control-transfer metadata for the next record."""
        self._pending_kind = kind
        self._pending_site = site

    def _emit_block(self, block: int) -> bool:
        """Emit the fetch records of one block visit.

        Server-style code rarely executes a whole 16-instruction block:
        it frequently exits early through a taken branch.  The execution
        length is a *static property of the block* (a hash of its id
        selects full / two groups / one group with the configured
        frequencies) plus a small per-visit flip, so early exits are
        strongly biased branches the TAGE stack can learn — as in real
        code — rather than noise.  An early exit transfers to the next
        block as a taken conditional at a block-derived static site.
        Returns True when the visit ran the full block (so the caller
        may execute the block's static op).
        """
        params = self.params
        h = fold_hash(block ^ 0x5DEECE66D, 20) / float(1 << 20)
        if h < params.full_block_prob:
            groups = 3
        elif h < params.full_block_prob + params.two_group_prob:
            groups = 2
        else:
            groups = 1
        rng = self.rng
        if rng.random() < params.exec_noise:
            groups = 1 + rng.randrange(3)  # rare data-dependent flip
        sizes = _FULL_BLOCK_GROUPS[:groups]
        # Intra-block control flow: short taken branches and tight loops
        # restart fetch within the same block before control leaves it —
        # the dominant effect behind Fig. 1a's ~85% distance-0 mass.
        if rng.random() < params.regroup_prob:
            sizes += (6,) * self._draw_iters(params.regroup_mean)
        count = len(sizes)
        blocks = self.blocks
        if len(blocks) + count > self._limit:
            # The visit crosses the emission limit: ``_emit`` stops the
            # walk there.  (The regroup draws above ran before records
            # they used to follow, but a cut-off walk replays its last
            # request from the entry's RNG state, so nothing reads them.)
            for n_instrs in sizes:
                self._emit(block, n_instrs)
        # Only the first record carries the pending transition; the
        # rest of the visit is sequential flow within the block.
        blocks.extend([block] * count)
        self.instrs.extend(sizes)
        self.kinds.append(self._pending_kind)
        self.kinds.extend([BranchKind.SEQUENTIAL] * (count - 1))
        self.sites.append(self._pending_site)
        self.sites.extend([-1] * (count - 1))
        self._pending_kind = BranchKind.SEQUENTIAL
        self._pending_site = -1
        if groups < 3:
            # Early exit: a strongly-biased taken conditional whose
            # target is the sequentially-next block.  For the front-end
            # datapath that is indistinguishable from fall-through (the
            # fetch target is the next block either way), so it is
            # emitted as sequential flow rather than as a BTB event —
            # matching how next-line prefetch sails through such code.
            return False
        return True

    # -- dynamics -------------------------------------------------------------

    def _draw_iters(self, mean: float) -> int:
        """Geometric draw with the given mean, >= 1, capped."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        count = 1
        cap = self.params.max_loop_iters
        while count < cap and self.rng.random() > p:
            count += 1
        return count

    def _walk_function(self, fid: int, depth: int) -> None:
        f = self.program.functions[fid]
        ops = f.ops
        base = f.base_block
        pos = 0
        n = f.n_blocks
        while pos < n:
            block = base + pos
            full_visit = self._emit_block(block)
            op = ops.get(pos) if full_visit else None
            if op is None:
                pos += 1
                continue
            if op.kind == OP_CALL:
                if depth < self.params.max_call_depth:
                    self._branch_to(BranchKind.CALL, op.site)
                    self._walk_function(op.callee, depth + 1)
                    self._branch_to(BranchKind.RETURN, return_site(op.callee))
                pos += 1
            elif op.kind == OP_LOOP:
                self._run_loop(f, pos, op, depth)
                pos += 1
            else:  # OP_BRSKIP
                if self.rng.random() < op.param:
                    self._branch_to(BranchKind.COND_TAKEN, op.site)
                    pos += op.span + 1
                else:
                    self._branch_to(BranchKind.COND_NOT_TAKEN, op.site)
                    pos += 1

    def _run_loop(self, f, pos: int, op, depth: int) -> None:
        """Execute the extra iterations of a loop ending at ``pos``.

        The first iteration already ran as part of sequential flow.
        Repeat iterations re-emit the body blocks; nested loop/skip ops
        are treated as straight-line, nested calls execute normally.
        """
        iters = self._draw_iters(op.param)
        base = f.base_block
        ops = f.ops
        for _ in range(iters - 1):
            self._branch_to(BranchKind.COND_TAKEN, op.site)
            if op.span == 0:
                # Tight intra-block loop: one fetch group per iteration.
                self._emit(base + pos, 6)
                continue
            for body_pos in range(pos - op.span, pos + 1):
                full_visit = self._emit_block(base + body_pos)
                body_op = ops.get(body_pos) if full_visit else None
                if (
                    body_op is not None
                    and body_op.kind == OP_CALL
                    and body_pos != pos
                    and depth < self.params.max_call_depth
                ):
                    self._branch_to(BranchKind.CALL, body_op.site)
                    self._walk_function(body_op.callee, depth + 1)
                    self._branch_to(
                        BranchKind.RETURN, return_site(body_op.callee)
                    )
        # Loop exit: the backedge falls through.
        self._branch_to(BranchKind.COND_NOT_TAKEN, op.site)

    def _pick_member(self, members: List[int]) -> int:
        """Zipf-like biased choice: early pool members are hot paths."""
        u = self.rng.random() ** self.params.member_zipf
        return members[int(u * len(members))]

    # -- top level --------------------------------------------------------------

    def _run(self, records: int) -> None:
        """Walk whole requests until at least ``records`` are out."""
        program = self.program
        params = self.params
        rng = self.rng
        n_groups = len(program.groups)
        lo_phases, hi_phases = params.phases
        base = len(self)
        while base + len(self.blocks) < records:
            # Note each request entry and the state it starts from, so a
            # walk cut off inside this request resumes from here.
            self._entries.append(base + len(self.blocks))
            self._entry_state = self._snapshot()
            if n_groups > 1 and rng.random() >= params.request_self_transition:
                # Leave the current type; pick uniformly among the others.
                offset = rng.randrange(n_groups - 1)
                self._group = (self._group + 1 + offset) % n_groups
            current_group = self._group
            group = program.groups[current_group]
            # Request entry: the group root via the global dispatch site.
            root = group.roots[rng.randrange(len(group.roots))]
            self._branch_to(BranchKind.INDIRECT, program.dispatch_site)
            self._walk_function(root, depth=0)
            # Request body: a few phases through the group's handler pool,
            # interleaved with cold paths (error/admin/logging code) that
            # form the polluting junk stream.
            phase_site = _PHASE_SITE_BASE + group.gid
            cold_ids = program.cold_ids
            for _ in range(rng.randint(lo_phases, hi_phases)):
                # Every structural extension below guards on its knob
                # *before* touching the RNG, so walks with the default
                # knob values replay the exact pre-extension RNG stream
                # (existing cached traces stay bit-identical).
                if (
                    params.rpc_interleave_prob > 0
                    and n_groups > 1
                    and rng.random() < params.rpc_interleave_prob
                ):
                    # RPC-style cross-group interleave: the request
                    # calls out to another service's handler pool, so
                    # that group's code interleaves with this group's
                    # working set mid-request.
                    offset = rng.randrange(n_groups - 1)
                    other = program.groups[
                        (current_group + 1 + offset) % n_groups
                    ]
                    self._branch_to(
                        BranchKind.INDIRECT, _PHASE_SITE_BASE + other.gid
                    )
                    self._walk_function(self._pick_member(other.members), depth=0)
                elif cold_ids and rng.random() < params.cold_phase_prob:
                    self._branch_to(BranchKind.INDIRECT, phase_site)
                    self._cold_cursor = (
                        self._cold_cursor + 1 + rng.randrange(3)
                    ) % len(cold_ids)
                    self._walk_function(cold_ids[self._cold_cursor], depth=0)
                else:
                    self._branch_to(BranchKind.INDIRECT, phase_site)
                    member = self._pick_member(group.members)
                    self._walk_function(member, depth=0)
                if params.dispatch_fanout > 0 and program.hot_ids:
                    # Interpreter-dispatch fan-out: a run of hot
                    # helpers, each reached through the one global
                    # dispatch-loop indirect (single site, many
                    # targets — the BTB-hostile managed-runtime shape).
                    for _ in range(params.dispatch_fanout):
                        self._branch_to(BranchKind.INDIRECT, _INTERP_SITE)
                        hot = program.hot_ids[
                            int((rng.random() ** 1.5) * len(program.hot_ids))
                        ]
                        self._walk_function(hot, depth=0)


def _snapshot_of(saved: list) -> tuple:
    """A :meth:`Walk._snapshot` read back from its JSON form."""
    (version, internal, gauss), group, cold_cursor, kind, site = saved
    return (
        (int(version), tuple(int(w) for w in internal), gauss),
        int(group),
        int(cold_cursor),
        int(kind),
        int(site),
    )


def generate_trace(
    program: SyntheticProgram,
    params: WalkParams,
    seed: int = 0,
    name: str = "synthetic",
    walk: Optional[Walk] = None,
) -> Trace:
    """Walk ``program`` and return the resulting fetch-record trace.

    ``walk``, when given, is a :class:`Walk` of this same program, params
    and seed, shared between calls: the trace is cut from it, and the
    walk is resumed first only when it is too short.
    """
    if walk is None:
        walk = Walk(program, params, seed)
    return walk.trace(params.target_records, name)
