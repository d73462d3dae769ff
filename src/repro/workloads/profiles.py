"""Per-application workload profiles (Table III + SPEC).

Each profile binds a static :class:`ProgramShape` and dynamic
:class:`WalkParams` calibrated so the resulting trace reproduces the
application's published front-end character:

* ~85 % of accesses at reuse distance 0 (Figure 1a's spatial mass);
* a *live* code set — hot library functions plus the active request
  group's handlers — sized near or above the 512-block i-cache, so LRU
  operates at the capacity margin;
* a *cold-path* stream (error/admin/logging code, huge pools cycled
  slowly) that pollutes the cache; this junk is what ACIC's admission
  control filters.  Its volume per app tracks the paper's Table III
  MPKI ordering;
* request-mix burstiness (Markov self-transition) controlling whether
  re-reference distances land just beyond the i-cache (the
  "ACIC-friendly" apps: media streaming, data caching, web search,
  neo4j) or far beyond it (TPC-C, wikipedia).

The absolute paper numbers came from QEMU traces of the real
applications; our profiles are *calibrated synthetics*.  They
reproduce the front-end character listed above — the part of a program
an i-cache admission policy reacts to — not the applications' code, so
the reproduced claims are orderings and ratios across applications,
not absolute values.  Paper MPKI values are recorded per profile so
benches can print paper-vs-measured side by side.
"""

from __future__ import annotations

import os
import threading
from collections import ChainMap, OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

from repro.workloads.generator import Walk, WalkParams, generate_trace
from repro.workloads.program import ProgramShape, build_program
from repro.workloads.trace import TRACE_STORE, Trace

#: Default trace length (fetch records); scaled by REPRO_SCALE at run time.
DEFAULT_RECORDS = 160_000


@dataclass(frozen=True)
class WorkloadProfile:
    """A named, calibrated synthetic workload."""

    name: str
    suite: str
    description: str
    paper_mpki: float
    shape: ProgramShape
    walk: WalkParams
    seed: int = 0

    def trace(
        self, records: Optional[int] = None, seed: Optional[int] = None
    ) -> Trace:
        """This profile's trace: cut from a resident walk, else loaded
        from or built into the trace cache.

        Every length is a prefix of one walk per (profile, seed): it
        ends at the first request entry at or past ``records`` (or at
        the walk's emission limit), see :mod:`repro.workloads.generator`.
        :data:`_walks` sits in front of the disk: a length the walk it
        holds for (profile, seed) covers is cut from it, and the trace
        cache is neither read nor written.  Otherwise the trace cache's
        entry for the length is loaded; on a miss the trace is cut from
        the longer of the resident walk and the longest walk saved in
        the trace cache (resumed, see :meth:`_resume`), grown first if
        it is too short, or else from a new walk; that walk stays
        resident.  A trace the walk was started or grown for is saved,
        with the walk's state when it ends where the walk does, for
        other processes to resume; a cut of a resumed walk is not saved
        (any process resumes the same walk).  A cut trace carries its walk,
        so its frontend plan is cut from the walk's too (see
        :func:`repro.frontend.plan.cached_plan`).
        """
        records = records or self.walk.target_records
        seed = self.seed if seed is None else seed
        memo_key = (self, seed)
        with _walks_lock:
            walk = _walks.get(memo_key)
            if walk is not None and walk.covers(records):
                trace = walk.trace(records, self.name)
                _keep_walk(memo_key, walk)
                return trace
        trace = self._saved_trace(records, seed)
        if trace is not None:
            return trace
        with _walks_lock:
            walk = _walks.get(memo_key)
            if walk is None or not walk.covers(records):
                walk = self._resume(seed, longer_than=walk) or walk
            if walk is not None:
                grew = not walk.covers(records)
                trace = walk.trace(records, self.name)
            else:
                grew = True
                params = replace(self.walk, target_records=records)
                program = build_program(self.shape, seed=seed)
                walk = Walk(program, params, seed + 1)
                trace = generate_trace(
                    program, params, seed=seed + 1, name=self.name, walk=walk
                )
            if grew and len(trace) == len(walk):
                trace.walk_state = walk.state()
            _keep_walk(memo_key, walk)
        if grew:
            trace.save(TRACE_STORE.path(self._key(records, seed)))
        return trace

    def has_trace(self, records: int, seed: Optional[int] = None) -> bool:
        """Whether :meth:`trace` serves this length without walking: cut
        from this process's resident walk, or loaded from the trace
        cache."""
        seed = self.seed if seed is None else seed
        with _walks_lock:
            walk = _walks.get((self, seed))
            if walk is not None and walk.covers(records):
                return True
        return self._saved_trace(records, seed) is not None

    def _saved_trace(self, records: int, seed: int) -> Optional[Trace]:
        """The trace cache's entry for this length, loaded, or None."""
        return TRACE_STORE.get(self._key(records, seed), None, use_disk=True)

    def _key(self, records: int, seed: int) -> str:
        """The trace cache's name for the trace of ``records`` records."""
        return f"{self.name}-r{records}-s{seed}"

    def _resume(self, seed: int, longer_than: Optional[Walk]) -> Optional[Walk]:
        """The longest walk saved with a trace of this profile, resumed
        (see :meth:`Walk.resume`), or None when the trace cache holds
        none longer than ``longer_than``.  Its program is built only if
        it has to grow."""
        prefix, suffix = f"{self.name}-r", f"-s{seed}"
        saved = []
        for name in TRACE_STORE.names(prefix):
            records = name[len(prefix) :].removesuffix(suffix)
            if records.isdigit() and name == self._key(int(records), seed):
                saved.append((int(records), name))
        floor = 0 if longer_than is None else len(longer_than)
        for records, name in sorted(saved, reverse=True):
            if records <= floor:
                break
            if not TRACE_STORE.has_meta(name, "walk"):
                continue
            # None when the store discarded the entry as corrupt.
            trace = TRACE_STORE.get(name, None, use_disk=True)
            if trace is None or len(trace) <= floor:
                continue
            try:
                return Walk.resume(
                    trace, self.walk, lambda: build_program(self.shape, seed=seed)
                )
            except ValueError:
                continue
        return None


#: Per-process walk memo, by (profile, seed), in LRU order.  A walk
#: starts when a trace is built (a trace-cache miss): a saved walk
#: resumed, or a new one.  It serves every later length of its profile
#: ahead of the trace cache.  A walk holds 18 bytes per walked record,
#: which the traces cut from it view,
#: the ``fdp`` plan of its longest trace with its record stream
#: (:func:`repro.frontend.plan.cached_plan`), about 53 bytes per record
#: more (W10 at 160k records, ``tracemalloc``), and its program, about
#: 60 bytes per program block (a resumed walk builds it only to grow).
#: So the memo is bounded by its walks' records plus program blocks
#: (see :func:`_held`), about three
#: full-length walks, and by a count.  A per-call sweep worker keeps no
#: walk past its warm (:func:`repro.harness.runner._warm_worker`); the
#: bound serves processes that cut several lengths of a profile, such as
#: serial benches and the sweep service's workers.  Traces hold their
#: walk weakly (``trace.walk``), so a walk the memo drops is freed.
_walks: "OrderedDict[tuple, Walk]" = OrderedDict()
_WALKS_MAX_RECORDS = 7 * DEFAULT_RECORDS // 2
_WALKS_CAP = 16
#: Sweep-service simulation threads build traces concurrently.
_walks_lock = threading.Lock()


def clear_walk_memo() -> None:
    """Forget every walk, so the next trace of each profile comes from
    the trace cache (tests)."""
    with _walks_lock:
        _walks.clear()


def forget_walk(profile: "WorkloadProfile", seed: Optional[int] = None) -> None:
    """Drop ``profile``'s walk: its caller asks for no other length."""
    seed = profile.seed if seed is None else seed
    with _walks_lock:
        _walks.pop((profile, seed), None)


def _held(walk: Walk) -> int:
    """What ``walk`` holds, counted in walked records: a program block
    costs about what a walked record and its plans do."""
    program = walk.program
    return len(walk) + (0 if program is None else program.total_blocks)


def _keep_walk(key: tuple, walk: Walk) -> None:
    """Make ``walk`` the memo's most recent entry; then drop the least
    recent walks beyond the records bound and the count cap."""
    _walks[key] = walk
    _walks.move_to_end(key)
    held = sum(_held(w) for w in _walks.values())
    while len(_walks) > 1 and (
        held > _WALKS_MAX_RECORDS or len(_walks) > _WALKS_CAP
    ):
        held -= _held(_walks.popitem(last=False)[1])


def _new_walks_lock() -> None:
    # A fork while another thread holds the lock would hand the child a
    # lock nobody will release.
    global _walks_lock
    _walks_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_walks_lock)


def _dc(
    name: str,
    suite: str,
    description: str,
    paper_mpki: float,
    *,
    groups: int,
    handlers: int = 20,
    handler_size: tuple = (8, 18),
    hot_functions: int = 40,
    hot_size: tuple = (4, 8),
    hot_call_bias: float = 0.45,
    hot_zipf: float = 1.3,
    shared_handlers: int = 12,
    cold_functions: int = 1600,
    cold_size: tuple = (24, 48),
    cold_phase_prob: float = 0.5,
    call_prob: float = 0.3,
    loop_mean_iters: float = 4.0,
    self_transition: float = 0.35,
    phases: tuple = (11, 15),
    member_zipf: float = 1.2,
    seed: int = 0,
) -> WorkloadProfile:
    """Datacenter profile built on the calibrated P3 skeleton."""
    return WorkloadProfile(
        name=name,
        suite=suite,
        description=description,
        paper_mpki=paper_mpki,
        shape=ProgramShape(
            hot_functions=hot_functions,
            hot_size=hot_size,
            groups=groups,
            handlers_per_group=handlers,
            roots_per_group=2,
            handler_size=handler_size,
            shared_handlers=shared_handlers,
            cold_functions=cold_functions,
            cold_size=cold_size,
            call_prob=call_prob,
            hot_call_bias=hot_call_bias,
            hot_zipf=hot_zipf,
            loop_mean_iters=loop_mean_iters,
        ),
        walk=WalkParams(
            target_records=DEFAULT_RECORDS,
            request_self_transition=self_transition,
            phases=phases,
            member_zipf=member_zipf,
            cold_phase_prob=cold_phase_prob,
            regroup_prob=0.75,
            regroup_mean=4.0,
        ),
        seed=seed,
    )


# -- the ten datacenter applications of Table III ---------------------------
# The four "ACIC-friendly" apps (heavy intermediate reuse + large cold
# streams): media streaming, data caching, web search, neo4j-analytics.

MEDIA_STREAMING = _dc(
    "media-streaming", "CloudSuite", "Darwin streaming server", 81.2,
    groups=6, cold_functions=240, cold_phase_prob=0.50, seed=11,
)

DATA_CACHING = _dc(
    "data-caching", "CloudSuite", "Memcached for Twitter", 78.1,
    groups=6, cold_functions=220, cold_phase_prob=0.48,
    hot_call_bias=0.5, self_transition=0.45, seed=12,
)

DATA_SERVING = _dc(
    "data-serving", "CloudSuite", "YCSB data store server", 31.6,
    groups=3, handlers=16, cold_functions=140, cold_size=(16, 32),
    cold_phase_prob=0.35, self_transition=0.5, seed=13,
)

WEB_SERVING = _dc(
    "web-serving", "CloudSuite", "Cloud web services", 65.8,
    groups=6, cold_functions=200, cold_phase_prob=0.45,
    self_transition=0.4, seed=14,
)

WEB_SEARCH = _dc(
    "web-search", "CloudSuite", "Apache Solr search engine", 151.5,
    groups=8, handlers=22, handler_size=(8, 20),
    cold_functions=320, cold_size=(28, 56), cold_phase_prob=0.55,
    call_prob=0.32, self_transition=0.45, seed=15,
)

TPCC = _dc(
    "tpcc", "OLTP-Bench", "OLTP transaction mix", 42.5,
    groups=9, handlers=24, cold_functions=180, cold_size=(16, 32),
    cold_phase_prob=0.3, self_transition=0.12, phases=(9, 13), seed=16,
)

WIKIPEDIA = _dc(
    "wikipedia", "OLTP-Bench", "Online encyclopedia", 41.1,
    groups=8, handlers=22, cold_functions=170, cold_size=(16, 32),
    cold_phase_prob=0.3, self_transition=0.15, phases=(9, 13), seed=17,
)

SIBENCH = _dc(
    "sibench", "OLTP-Bench", "Snapshot-isolation benchmark", 35.0,
    groups=2, handlers=16, cold_functions=130, cold_size=(16, 32),
    cold_phase_prob=0.38, self_transition=0.5, seed=18,
)

FINAGLE_HTTP = _dc(
    "finagle-http", "Renaissance", "Twitter's HTTP server", 46.1,
    groups=4, handlers=18, cold_functions=170, cold_size=(20, 40),
    cold_phase_prob=0.42, self_transition=0.45, seed=19,
)

NEO4J_ANALYTICS = _dc(
    "neo4j-analytics", "Renaissance", "Graph database queries", 58.7,
    groups=5, handlers=20, cold_functions=210, cold_phase_prob=0.48,
    loop_mean_iters=6.0, seed=20,
)

# -- SPEC2017 integer-speed profiles (Section IV-H3) -------------------------
# SPEC codes are loop-dominated with small instruction footprints: high
# baseline hit rates and little headroom for any policy, which is the
# point Figure 18/19 makes.

def _spec(
    name: str,
    description: str,
    paper_mpki: float,
    *,
    groups: int,
    handlers: int,
    handler_size: tuple,
    loop_mean_iters: float,
    cold_functions: int,
    seed: int,
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        suite="SPEC2017",
        description=description,
        paper_mpki=paper_mpki,
        shape=ProgramShape(
            hot_functions=16,
            hot_size=(2, 8),
            groups=groups,
            handlers_per_group=handlers,
            roots_per_group=1,
            handler_size=handler_size,
            shared_handlers=4,
            cold_functions=cold_functions,
            cold_size=(10, 24),
            call_prob=0.2,
            hot_call_bias=0.5,
            loop_prob=0.14,
            intra_block_loop_prob=0.08,
            loop_mean_iters=loop_mean_iters,
        ),
        walk=WalkParams(
            target_records=DEFAULT_RECORDS,
            request_self_transition=0.8,
            phases=(4, 8),
            member_zipf=1.5,
            cold_phase_prob=0.08,
            regroup_prob=0.75,
            regroup_mean=4.0,
        ),
        seed=seed,
    )


PERLBENCH = _spec(
    "perlbench", "Perl interpreter", 6.0,
    groups=2, handlers=14, handler_size=(4, 14), loop_mean_iters=6.0,
    cold_functions=60, seed=31,
)
OMNETPP = _spec(
    "omnetpp", "Discrete-event simulator", 4.0,
    groups=2, handlers=10, handler_size=(4, 12), loop_mean_iters=7.0,
    cold_functions=40, seed=32,
)
XALANCBMK = _spec(
    "xalancbmk", "XSLT processor", 7.0,
    groups=3, handlers=12, handler_size=(4, 12), loop_mean_iters=6.0,
    cold_functions=70, seed=33,
)
X264 = _spec(
    "x264", "Video encoder", 2.0,
    groups=1, handlers=8, handler_size=(4, 10), loop_mean_iters=12.0,
    cold_functions=24, seed=34,
)
GCC = _spec(
    "gcc", "C compiler", 9.0,
    groups=4, handlers=16, handler_size=(6, 16), loop_mean_iters=5.0,
    cold_functions=100, seed=35,
)

DATACENTER_WORKLOADS: Dict[str, WorkloadProfile] = {
    p.name: p
    for p in (
        MEDIA_STREAMING,
        DATA_CACHING,
        DATA_SERVING,
        WEB_SERVING,
        WEB_SEARCH,
        TPCC,
        WIKIPEDIA,
        SIBENCH,
        FINAGLE_HTTP,
        NEO4J_ANALYTICS,
    )
}

SPEC_WORKLOADS: Dict[str, WorkloadProfile] = {
    p.name: p for p in (PERLBENCH, OMNETPP, XALANCBMK, X264, GCC)
}

ALL_WORKLOADS: Dict[str, WorkloadProfile] = {
    **DATACENTER_WORKLOADS,
    **SPEC_WORKLOADS,
}

# -- dynamic and search-found workloads ---------------------------------------
#
# Beyond the hand-calibrated tables above, two more sources resolve
# through get_workload:
#
# * *registered* profiles — in-process candidates the workload search
#   scores through the ordinary Runner machinery (their fingerprinted
#   names key the caches);
# * *found* profiles — the committed scenario registry under
#   ``profiles/found/`` (REPRO_FOUND_PROFILES): every search discovery
#   is a permanent, first-class tracked workload, loadable in any
#   process (sweep workers included) without prior registration.

_REGISTERED_WORKLOADS: Dict[str, WorkloadProfile] = {}

_found_workloads: Optional[Dict[str, WorkloadProfile]] = None


def register_workload(profile: WorkloadProfile) -> WorkloadProfile:
    """Register an in-process profile (search candidates, ad-hoc runs).

    The calibrated table names are reserved — shadowing ``tpcc`` with a
    different shape would poison every cache keyed by workload name.
    Re-registering the same name is allowed (idempotent by design: the
    search re-registers a candidate each time it scores it).
    """
    if profile.name in ALL_WORKLOADS:
        raise ValueError(
            f"cannot register {profile.name!r}: shadows a calibrated profile"
        )
    _REGISTERED_WORKLOADS[profile.name] = profile
    return profile


def found_workloads() -> Dict[str, WorkloadProfile]:
    """The committed scenario registry, loaded once per process."""
    global _found_workloads
    if _found_workloads is None:
        from repro.workloads.search.registry import load_found_profiles

        _found_workloads = load_found_profiles()
    return _found_workloads


def reload_found_workloads() -> Dict[str, WorkloadProfile]:
    """Drop the found-profile cache (tests repoint REPRO_FOUND_PROFILES)."""
    global _found_workloads
    _found_workloads = None
    return found_workloads()


def _workload_tables():
    """The tables that resolve a workload name, in lookup order:
    calibrated, registered, then found (loaded only when reached)."""
    yield ALL_WORKLOADS
    yield _REGISTERED_WORKLOADS
    yield found_workloads()


def workload_table() -> Mapping[str, WorkloadProfile]:
    """Every resolvable profile by name, as one view over the tables:
    no copy, no sort."""
    return ChainMap(*_workload_tables())


def known_workload_names() -> tuple:
    """Every resolvable workload name (calibrated + registered + found)."""
    return tuple(sorted(workload_table()))


def get_workload(name: str) -> WorkloadProfile:
    """Look up a profile by name with a helpful error."""
    for table in _workload_tables():
        if name in table:
            return table[name]
    known = ", ".join(known_workload_names())
    raise KeyError(f"unknown workload {name!r}; known: {known}") from None
