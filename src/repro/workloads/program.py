"""Synthetic program model: the static structure behind a trace.

The paper traces real datacenter binaries with QEMU.  We substitute a
*synthetic program*: a set of functions occupying a flat block address
space, wired into a static call graph, with loops and conditional
branches whose outcomes are drawn at walk time.  Walking the program
(see :mod:`repro.workloads.generator`) yields an instruction-block
fetch stream with the same structural properties the paper exploits:

* sequential execution inside functions  -> spatial bursts;
* loops (incl. intra-block loops)        -> short-range temporal reuse;
* hot library/OS functions called from everywhere -> short/medium reuse;
* per-request handler code re-run on the next request of the same type
  -> the intermediate (just-beyond-i-cache) reuse distances that ACIC's
  admission control targets;
* many request types with large private footprints -> long distances.

Static structure (function sizes, call sites, branch sites) is fixed at
generation time from a seeded RNG, so the branch-prediction stack sees
realistic, learnable control flow; only branch outcomes, loop trip
counts and the request mix are drawn during the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

# Op kinds attached to blocks of a function (at most one per block).
OP_CALL = 0    # descend into a callee function
OP_LOOP = 1    # loop back over the last `span` blocks (span 0 = this block)
OP_BRSKIP = 2  # conditional forward branch skipping `span` blocks


@dataclass
class Op:
    """One control-flow operation attached to a block position."""

    kind: int
    span: int          # CALL: unused; LOOP/BRSKIP: block span
    site: int          # static branch-site id (for BTB/TAGE)
    callee: int = -1   # CALL: target function id
    param: float = 0.0  # LOOP: mean iterations; BRSKIP: taken probability


@dataclass
class Function:
    """A contiguous run of instruction blocks plus its control flow."""

    fid: int
    base_block: int
    n_blocks: int
    ops: Dict[int, Op] = field(default_factory=dict)
    is_hot: bool = False

    @property
    def blocks(self) -> range:
        return range(self.base_block, self.base_block + self.n_blocks)


@dataclass
class RequestGroup:
    """One request type: entry points plus its private handler pool."""

    gid: int
    roots: List[int]
    members: List[int]


@dataclass
class SyntheticProgram:
    """A generated program: functions, call graph, request structure."""

    functions: List[Function]
    hot_ids: List[int]
    shared_ids: List[int]
    cold_ids: List[int]
    groups: List[RequestGroup]
    dispatch_site: int
    n_sites: int

    @cached_property
    def total_blocks(self) -> int:
        return sum(f.n_blocks for f in self.functions)


@dataclass(frozen=True)
class ProgramShape:
    """Static-structure knobs consumed by :func:`build_program`.

    These are the *architecture-visible* shape parameters; the
    per-application values live in :mod:`repro.workloads.profiles`.
    """

    hot_functions: int = 24
    hot_size: Tuple[int, int] = (2, 8)
    groups: int = 4
    handlers_per_group: int = 16
    roots_per_group: int = 2
    handler_size: Tuple[int, int] = (6, 24)
    shared_handlers: int = 8
    shared_size: Tuple[int, int] = (4, 12)
    cold_functions: int = 0
    cold_size: Tuple[int, int] = (12, 32)
    call_prob: float = 0.25
    hot_call_bias: float = 0.5
    shared_call_bias: float = 0.2
    chain_call_prob: float = 0.0
    hot_zipf: float = 2.0
    loop_prob: float = 0.08
    intra_block_loop_prob: float = 0.05
    loop_span: Tuple[int, int] = (1, 4)
    loop_mean_iters: float = 4.0
    brskip_prob: float = 0.10
    brskip_span: Tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.groups <= 0 or self.handlers_per_group <= 0:
            raise ValueError("need at least one group with one handler")
        if self.roots_per_group > self.handlers_per_group:
            raise ValueError("more roots than handlers in a group")
        for lo, hi in (
            self.hot_size,
            self.handler_size,
            self.shared_size,
            self.cold_size,
        ):
            if lo < 1 or hi < lo:
                raise ValueError(f"bad size range ({lo}, {hi})")
        if self.cold_functions < 0:
            raise ValueError("cold_functions must be non-negative")
        if not 0.0 <= self.chain_call_prob <= 1.0:
            raise ValueError("chain_call_prob must be a probability")


def build_program(shape: ProgramShape, seed: int = 0) -> SyntheticProgram:
    """Generate the static program for ``shape`` deterministically."""
    rng = random.Random(seed)
    functions: List[Function] = []
    site_counter = [0]

    def new_site() -> int:
        site_counter[0] += 1
        return site_counter[0] - 1

    next_block = [0]

    def new_function(n_blocks: int, is_hot: bool = False) -> Function:
        f = Function(
            fid=len(functions),
            base_block=next_block[0],
            n_blocks=n_blocks,
            is_hot=is_hot,
        )
        next_block[0] += n_blocks
        functions.append(f)
        return f

    dispatch_site = new_site()

    # Hot library/OS functions: small, call-free leaves (they may loop).
    hot_ids: List[int] = []
    for _ in range(shape.hot_functions):
        f = new_function(rng.randint(*shape.hot_size), is_hot=True)
        hot_ids.append(f.fid)
        _attach_loops_and_branches(f, shape, rng, leaf=True)

    # Shared handlers: mid-sized, callable from every group; they call
    # only hot functions, which keeps the call graph a DAG.
    shared_ids: List[int] = []
    for _ in range(shape.shared_handlers):
        f = new_function(rng.randint(*shape.shared_size))
        shared_ids.append(f.fid)
        _attach_loops_and_branches(f, shape, rng, leaf=False)
        _attach_calls(f, shape, rng, deeper=[], hot_ids=hot_ids, shared_ids=[])

    # Request groups: private handler pools wired root -> deeper DAG.
    groups: List[RequestGroup] = []
    for gid in range(shape.groups):
        members: List[int] = []
        for _ in range(shape.handlers_per_group):
            f = new_function(rng.randint(*shape.handler_size))
            members.append(f.fid)
            _attach_loops_and_branches(f, shape, rng, leaf=False)
        # Calls may only target *later* members (guarantees termination).
        for index, fid in enumerate(members):
            deeper = members[index + 1 :]
            _attach_calls(
                functions[fid], shape, rng, deeper, hot_ids, shared_ids
            )
        # Deep call chains (datacenter structure ACIC exploits): each
        # member gains a guaranteed call site to the *next* member with
        # probability ``chain_call_prob``, so a request can descend the
        # whole handler pool as one nested call chain instead of the
        # shallow random DAG ``_attach_calls`` produces.  The guard
        # short-circuits before touching the RNG, so shapes with the
        # default 0.0 build bit-identical programs to older versions.
        if shape.chain_call_prob > 0:
            for index, fid in enumerate(members[:-1]):
                if rng.random() >= shape.chain_call_prob:
                    continue
                f = functions[fid]
                for pos in range(f.n_blocks - 1):
                    if pos not in f.ops:
                        f.ops[pos] = Op(
                            kind=OP_CALL,
                            span=0,
                            site=_fresh_site(f, rng),
                            callee=members[index + 1],
                        )
                        break
        groups.append(
            RequestGroup(
                gid=gid, roots=members[: shape.roots_per_group], members=members
            )
        )

    # Cold paths: rarely-executed straight-line code (error handling,
    # admin endpoints, logging, JIT'd variants...).  They form the junk
    # stream that pollutes the i-cache: each is touched, bursts briefly,
    # and is not needed again for a very long time.  No calls — they are
    # leaves — but normal loop/branch texture.
    cold_ids: List[int] = []
    for _ in range(shape.cold_functions):
        f = new_function(rng.randint(*shape.cold_size))
        cold_ids.append(f.fid)
        _attach_loops_and_branches(f, shape, rng, leaf=True)

    n_sites = 1 + sum(len(f.ops) for f in functions) + len(functions)
    return SyntheticProgram(
        functions=functions,
        hot_ids=hot_ids,
        shared_ids=shared_ids,
        cold_ids=cold_ids,
        groups=groups,
        dispatch_site=dispatch_site,
        n_sites=n_sites,
    )


def _attach_loops_and_branches(
    f: Function, shape: ProgramShape, rng: random.Random, leaf: bool
) -> None:
    """Sprinkle loop and conditional-skip ops over a function body."""
    site = f.ops  # alias
    for pos in range(f.n_blocks):
        if pos in site:
            continue
        roll = rng.random()
        if roll < shape.intra_block_loop_prob:
            site[pos] = Op(
                kind=OP_LOOP,
                span=0,
                site=_fresh_site(f, rng),
                param=max(1.0, shape.loop_mean_iters / 2),
            )
        elif roll < shape.intra_block_loop_prob + shape.loop_prob and pos > 0:
            span = min(pos, rng.randint(*shape.loop_span))
            site[pos] = Op(
                kind=OP_LOOP,
                span=span,
                site=_fresh_site(f, rng),
                param=shape.loop_mean_iters,
            )
        elif (
            roll
            < shape.intra_block_loop_prob + shape.loop_prob + shape.brskip_prob
            and pos < f.n_blocks - 1
        ):
            span = min(f.n_blocks - 1 - pos, rng.randint(*shape.brskip_span))
            if span > 0:
                site[pos] = Op(
                    kind=OP_BRSKIP,
                    span=span,
                    site=_fresh_site(f, rng),
                    param=rng.choice((0.05, 0.1, 0.2, 0.35, 0.5)),
                )


def _attach_calls(
    f: Function,
    shape: ProgramShape,
    rng: random.Random,
    deeper: List[int],
    hot_ids: List[int],
    shared_ids: List[int],
) -> None:
    """Attach static call sites to the free block positions of ``f``."""
    for pos in range(f.n_blocks - 1):
        if pos in f.ops or rng.random() >= shape.call_prob:
            continue
        roll = rng.random()
        if roll < shape.hot_call_bias and hot_ids:
            callee = _zipf_choice(hot_ids, shape.hot_zipf, rng)
        elif roll < shape.hot_call_bias + shape.shared_call_bias and shared_ids:
            callee = _zipf_choice(shared_ids, shape.hot_zipf, rng)
        elif deeper:
            callee = rng.choice(deeper)
        elif hot_ids:
            callee = _zipf_choice(hot_ids, shape.hot_zipf, rng)
        else:
            continue
        f.ops[pos] = Op(kind=OP_CALL, span=0, site=_fresh_site(f, rng), callee=callee)


def _zipf_choice(pool: List[int], skew: float, rng: random.Random) -> int:
    """Biased choice: low-index pool members are exponentially hotter.

    Static call sites drawn this way give the library/OS code a realistic
    popularity skew: a handful of very hot helpers, a long warm tail.
    """
    return pool[int((rng.random() ** skew) * len(pool))]


def _fresh_site(f: Function, rng: random.Random) -> int:
    """Allocate a globally-unique static branch-site id.

    Sites live in a sparse deterministic space: ``(fid << 12) | k`` with
    ``k >= 1`` (k = 0 is reserved for the global dispatch site, and
    ``k = 0xFFF`` for the function's return site).  Functions never hold
    anywhere near 4094 ops, so ids cannot collide.
    """
    return (f.fid << 12) | (len(f.ops) + 1)


def return_site(fid: int) -> int:
    """The static site id of function ``fid``'s return instruction."""
    return (fid << 12) | 0xFFF
