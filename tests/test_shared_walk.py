"""Every trace length is a prefix of one shared, resumable walk.

A walk for ``T`` records stops at the first request entry (the record
fetched through the program's dispatch site, site 0) at or past ``T``,
or at the emission limit, so :class:`~repro.workloads.generator.Walk`
serves every length as a cut of one walk, growing it on demand.  These
tests pin that the cuts equal fresh single-length walks whatever order
the lengths are asked in, across the emission limit and across threads,
that a profile's resident walk serves its traces ahead of the trace
cache, that a walk resumed from a saved trace (the growth state saved
with it) cuts the same traces as one uninterrupted walk, and that the
committed ``.cache/traces`` entries obey the same prefix property, as
the committed ``.cache/plans`` entries obey its plan twin (a plan of a
shorter trace is the longest plan cut, see ``test_cut_plans.py``).
"""

from __future__ import annotations

import random
import re
import sys
import threading
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.artifacts import sidecar_path
from repro.workloads import profiles
from repro.workloads.generator import (
    Walk,
    WalkParams,
    emission_limit,
    generate_trace,
)
from repro.workloads.profiles import get_workload
from repro.workloads.program import ProgramShape, build_program
from repro.workloads.search.strategies import FIG11_SPACE
from repro.workloads.trace import TRACE_ARRAY_FIELDS, TRACE_STORE, Trace

SHAPE = ProgramShape(
    hot_functions=8,
    groups=2,
    handlers_per_group=6,
    handler_size=(4, 10),
    shared_handlers=4,
    cold_functions=30,
    cold_size=(8, 16),
)
WALK = WalkParams(phases=(3, 5), cold_phase_prob=0.3)
#: Requests of ~12-40k records: lengths up to 6000 trip the emission
#: limit inside the first request, longer ones end at request entries.
LONG_REQUESTS = replace(WALK, phases=(300, 900))
SEED = 2
LENGTHS = (1, 100, 999, 1000, 1001, 2500, 4000, 6000, 9000, 17000, 40000)

#: The committed trace cache and its entry names.
TRACE_DIR = Path(__file__).resolve().parents[1] / ".cache" / "traces"
ENTRY = re.compile(r"^(?P<workload>.+)-r(?P<records>\d+)-s(?P<seed>\d+)\.npz$")


def _fresh(program, walk: WalkParams, records: int):
    return generate_trace(program, replace(walk, target_records=records), seed=SEED)


def _assert_same(got, want) -> None:
    assert (got.name, got.seed) == (want.name, want.seed)
    for field in TRACE_ARRAY_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@pytest.fixture(scope="module")
def program():
    return build_program(SHAPE, seed=1)


class TestWalkCuts:
    @pytest.mark.parametrize("walk", [WALK, LONG_REQUESTS], ids=["calm", "limit"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_any_order_equals_fresh_walks(self, program, walk, order):
        lengths = {
            "ascending": sorted(LENGTHS),
            "descending": sorted(LENGTHS, reverse=True),
            "shuffled": random.Random(7).sample(LENGTHS, len(LENGTHS)),
        }[order]
        shared = Walk(program, walk, SEED)
        for records in lengths:
            trace = generate_trace(
                program, replace(walk, target_records=records), seed=SEED, walk=shared
            )
            _assert_same(trace, _fresh(program, walk, records))

    def test_limit_trips_and_resumes(self, program):
        """A walk cut off by the limit resumes from its request entry."""
        shared = Walk(program, LONG_REQUESTS, SEED)
        for records in (100, 4000, 1000):
            trace = shared.trace(records)
            assert len(trace) == emission_limit(records)
            _assert_same(trace, _fresh(program, LONG_REQUESTS, records))
        trace = shared.trace(17000)
        assert len(trace) < emission_limit(17000)  # ends at a request entry
        _assert_same(trace, _fresh(program, LONG_REQUESTS, 17000))

    def test_lengths_sharing_a_boundary_share_one_cut(self, program):
        shared = Walk(program, WALK, SEED)
        first = shared.trace(3000)
        entries = np.flatnonzero(first.branch_site == program.dispatch_site)
        # Every length in (last entry inside, end] cuts at the same
        # request entry, the end of ``first``; a length equal to an
        # entry cuts right before it.
        assert len(shared.trace(int(entries[-1]))) == entries[-1]
        same = [int(entries[-1]) + 1, len(first) - 1, len(first)]
        for records in same:
            trace = shared.trace(records)
            assert len(trace) == len(first)
            _assert_same(trace, _fresh(program, WALK, records))
        grown = shared.trace(len(first) + 1)
        assert len(grown) > len(first)
        _assert_same(grown, _fresh(program, WALK, len(first) + 1))

    def test_cuts_view_read_only_walk_arrays(self, program):
        shared = Walk(program, WALK, SEED)
        trace = shared.trace(2000)
        for field in TRACE_ARRAY_FIELDS:
            assert not getattr(trace, field).flags.writeable


#: Walks the resume property draws from: Figure 11 search profiles.
RESUME_PROFILES = [FIG11_SPACE.sample(seed=41, index=i).build() for i in range(6)]
_resume_programs: dict = {}


def _resume_program(index: int):
    program = _resume_programs.get(index)
    if program is None:
        profile = RESUME_PROFILES[index]
        program = _resume_programs[index] = build_program(
            profile.shape, seed=profile.seed
        )
    return program


def _saved_and_loaded(directory: Path, walk: Walk, records: int, sidecar: bool):
    """Cut ``walk`` at ``records``, save the trace with the walk's state
    as a generating profile does, and load it back through the store's
    sidecar or npz codec."""
    trace = walk.trace(records, "resumable")
    assert len(trace) == len(walk), "a generated trace ends where its walk does"
    trace.walk_state = walk.state()
    path = directory / f"resumable-{len(list(directory.glob('*.npz')))}.npz"
    TRACE_STORE.save(trace, path)
    loaded = Trace.load_mmap(sidecar_path(path)) if sidecar else Trace.load(path)
    assert loaded.walk_state == trace.walk_state
    return trace, loaded


class TestResumedWalks:
    """A walk resumed from a saved trace is the walk that saved it: it
    cuts the same traces as one uninterrupted walk below, at and past
    the saved length, and builds its program only to grow."""

    @settings(
        max_examples=16,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        index=st.integers(0, len(RESUME_PROFILES) - 1),
        saved_at=st.integers(300, 6000),
        below=st.lists(st.integers(1, 6000), max_size=3),
        past=st.lists(st.integers(1, 12000), min_size=1, max_size=3),
        sidecar=st.booleans(),
    )
    def test_fig11_walks_resume_bit_identical(
        self, tmp_path, index, saved_at, below, past, sidecar
    ):
        profile = RESUME_PROFILES[index]
        program = _resume_program(index)
        seed = profile.seed + 1
        saved, loaded = _saved_and_loaded(
            tmp_path, Walk(program, profile.walk, seed), saved_at, sidecar
        )
        built = []
        resumed = Walk.resume(
            loaded, profile.walk, lambda: built.append(index) or program
        )
        assert resumed.saved is loaded
        whole = Walk(program, profile.walk, seed)  # uninterrupted
        for records in [n for n in below if n <= saved_at] + [saved_at]:
            _assert_same(
                resumed.trace(records, "resumable"),
                whole.trace(records, "resumable"),
            )
        assert built == [] and resumed.program is None, (
            "cuts at or below the saved length walk nothing"
        )
        for records in [len(saved) + n for n in past] + below:
            _assert_same(
                resumed.trace(records, "resumable"),
                whole.trace(records, "resumable"),
            )
        assert built == [index], "growing builds the program once"

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "npz"])
    def test_walk_cut_off_at_its_limit_resumes(self, program, tmp_path, sidecar):
        """A walk saved while cut off mid-request by the emission limit
        re-walks that request from its entry when it grows."""
        saved, loaded = _saved_and_loaded(
            tmp_path, Walk(program, LONG_REQUESTS, SEED), 2500, sidecar
        )
        assert len(saved) == emission_limit(2500)
        resumed = Walk.resume(loaded, LONG_REQUESTS, lambda: program)
        for records in (1000, 2500, 4000, 17000, 40000, 100):
            _assert_same(
                resumed.trace(records), _fresh(program, LONG_REQUESTS, records)
            )

    def test_state_round_trips(self, program, tmp_path):
        """Every field the next growth reads comes back as saved."""
        walk = Walk(program, WALK, SEED)
        _, loaded = _saved_and_loaded(tmp_path, walk, 3000, sidecar=True)
        resumed = Walk.resume(loaded, WALK, lambda: program)
        for name in ("_entries", "_entry_state", "_cut_off", "seed"):
            assert getattr(resumed, name) == getattr(walk, name), name
        assert resumed._snapshot() == walk._snapshot()
        assert len(resumed) == len(walk)

    @pytest.mark.parametrize("state", [None, "", "{}", '{"entries": []}'])
    def test_unusable_state_raises(self, program, state):
        trace = Walk(program, WALK, SEED).trace(500)
        trace.walk_state = state
        with pytest.raises(ValueError, match="no usable walk state"):
            Walk.resume(trace, WALK, lambda: program)


class TestProfileWalkMemo:
    @pytest.fixture()
    def profile(self, request, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        # A name per test: the trace store's memo lives as long as the
        # process.
        return replace(get_workload("x264"), name=f"walk-{request.node.name}")

    def _fresh(self, profile, records):
        program = build_program(profile.shape, seed=profile.seed)
        return generate_trace(
            program,
            replace(profile.walk, target_records=records),
            seed=profile.seed + 1,
            name=profile.name,
        )

    @pytest.fixture()
    def store_gets(self, monkeypatch):
        """The keys of every ``TRACE_STORE.get`` call, in order."""
        keys = []
        real_get = TRACE_STORE.get

        def get(key, *args, **kwargs):
            keys.append(key)
            return real_get(key, *args, **kwargs)

        monkeypatch.setattr(TRACE_STORE, "get", get)
        return keys

    def test_first_length_goes_through_the_store(
        self, profile, tmp_path, store_gets
    ):
        profile.trace(records=3000)  # starts the walk
        profile.trace(records=2000)  # a cut of it
        name = f"{profile.name}-r3000-s{profile.seed}"
        assert store_gets == [name]
        assert [p.name for p in tmp_path.glob("*.npz")] == [f"{name}.npz"]

    @pytest.mark.parametrize(
        "records, grows", [(2000, False), (20000, True)], ids=["shorter", "grows"]
    )
    def test_resident_walk_serves_ahead_of_the_store(
        self, profile, tmp_path, store_gets, records, grows
    ):
        """A resident walk cuts a length it covers without reading or
        writing the trace cache.  A length it must grow for goes through
        the store first (an entry for it, a longer saved walk), and the
        trace it grew for is saved with the walk's state."""
        profile.trace(records=3000)  # starts the walk
        walk = profiles._walks[(profile, profile.seed)]
        walked = len(walk)
        before = {p.name for p in tmp_path.glob("*.npz")}
        store_gets.clear()
        trace = profile.trace(records=records)
        name = f"{profile.name}-r{records}-s{profile.seed}"
        assert store_gets == ([name] if grows else [])
        saved = {p.name for p in tmp_path.glob("*.npz")} - before
        assert saved == ({f"{name}.npz"} if grows else set())
        if grows:
            assert TRACE_STORE.read_npz(tmp_path / f"{name}.npz").walk_state
        assert (len(walk) > walked) is grows
        assert trace.walk is walk
        assert trace.digest == self._fresh(profile, records).digest

    def test_generated_length_keeps_its_walk(self, profile):
        """A generated trace starts the walk; a loaded one starts none."""
        first = profile.trace(records=3000)
        walk = profiles._walks[(profile, profile.seed)]
        assert first.walk is walk
        profiles.clear_walk_memo()
        loaded = profile.trace(records=3000)
        assert loaded.walk is None
        assert (profile, profile.seed) not in profiles._walks
        assert loaded.digest == first.digest

    def test_miss_resumes_the_longest_saved_walk(
        self, profile, store_gets, monkeypatch
    ):
        """Without a resident walk, a trace-cache miss resumes the
        longest walk saved with a trace: a shorter length is cut from it
        and a longer one grows it, and neither walks from record 0."""
        profile.trace(records=3000)
        profiles.clear_walk_memo()
        longest = profile.trace(records=6000)  # resumes r3000 and grows
        assert longest.walk.saved is not None
        profiles.clear_walk_memo()
        calls = []
        for name in ("generate_trace", "build_program"):
            real = getattr(profiles, name)
            monkeypatch.setattr(
                profiles,
                name,
                lambda *a, _name=name, _real=real, **k: calls.append(_name)
                or _real(*a, **k),
            )
        store_gets.clear()
        shorter = profile.trace(records=4500)
        key = f"{profile.name}-r{{}}-s{profile.seed}"
        assert store_gets == [key.format(4500), key.format(6000)]
        walk = shorter.walk
        assert len(walk.saved) == len(longest) and walk.program is None
        assert calls == []
        _assert_same(shorter, self._fresh(profile, 4500))
        grown = profile.trace(records=9000)
        assert calls == ["build_program"], "growing builds the program only"
        assert grown.walk is walk
        _assert_same(grown, self._fresh(profile, 9000))

    def test_short_resident_walk_resumes_a_longer_saved_one(
        self, profile, tmp_path, monkeypatch
    ):
        """A resident walk too short for a length gives way to a longer
        walk saved in the trace cache (another process grew it): the
        length is cut from that walk and its saved plan, not walked or
        planned again."""
        profile.trace(records=3000)  # the resident walk
        program = build_program(profile.shape, seed=profile.seed)
        elsewhere = Walk(program, profile.walk, profile.seed + 1)
        saved = elsewhere.trace(8000, profile.name)
        saved.walk_state = elsewhere.state()
        saved.save(tmp_path / f"{profile.name}-r8000-s{profile.seed}.npz")
        calls = []
        for name in ("generate_trace", "build_program"):
            monkeypatch.setattr(profiles, name, lambda *a, _n=name, **k: calls.append(_n))
        trace = profile.trace(records=6000)
        assert calls == []
        assert trace.walk.saved is not None and len(trace.walk.saved) == len(saved)
        assert profiles._walks[(profile, profile.seed)] is trace.walk
        _assert_same(trace, self._fresh(profile, 6000))

    def test_saves_only_what_a_walk_grew_for(self, profile, tmp_path):
        """A generated or grown trace is saved with its walk's state; a
        cut the resumed walk already covers is not saved at all."""
        profile.trace(records=3000)
        profiles.clear_walk_memo()
        profile.trace(records=2000)  # a cut of the resumed walk
        profiles.clear_walk_memo()
        profile.trace(records=5000)  # grows the resumed walk
        states = {
            path.name: TRACE_STORE.read_npz(path).walk_state
            for path in tmp_path.glob("*.npz")
        }
        key = f"{profile.name}-r{{}}-s{profile.seed}.npz"
        assert sorted(states) == sorted(key.format(n) for n in (3000, 5000))
        assert None not in states.values()

    def test_memo_is_bounded_by_what_walks_hold(self, profile, monkeypatch):
        """Walks beyond the bound on walked records plus program blocks
        go, least recent first, and the most recent walk stays whatever
        its size."""
        walk = Walk(build_program(profile.shape, seed=profile.seed),
                    profile.walk, profile.seed + 1)
        walk.trace(4000)
        one = len(walk) + walk.program.total_blocks
        monkeypatch.setattr(profiles, "_WALKS_MAX_RECORDS", 2 * one + one // 2)
        names = [replace(profile, name=f"{profile.name}-{i}") for i in range(3)]
        for profile in names:
            profile.trace(records=4000)
        # Three walks exceed the bound: the first went.
        assert [key[0] for key in profiles._walks] == names[1:]
        names[1].trace(records=30_000)
        assert [key[0] for key in profiles._walks] == [names[1]]

    def test_memo_is_bounded_by_a_count(self, profile, monkeypatch):
        """Short walks far inside the records bound still go, least
        recent first, beyond the count cap."""
        monkeypatch.setattr(profiles, "_WALKS_CAP", 2)
        names = [replace(profile, name=f"{profile.name}-{i}") for i in range(3)]
        for profile in names:
            profile.trace(records=500)
        assert [key[0] for key in profiles._walks] == names[1:]

    @pytest.mark.parametrize("round_", range(4))
    def test_threads_ask_different_lengths(self, profile, round_):
        """More threads than cores cut one shared walk at once."""
        profile.trace(records=1000)  # starts the walk the next lengths share
        lengths = (7000, 4000, 9000, 2500)
        barrier = threading.Barrier(len(lengths))
        got = {}

        def ask(records: int) -> None:
            barrier.wait()
            got[records] = profile.trace(records=records)

        threads = [threading.Thread(target=ask, args=(n,)) for n in lengths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for records in lengths:
            _assert_same(got[records], self._fresh(profile, records))


def _committed_groups():
    """(workload, seed) -> {records: npz path}, where several lengths exist."""
    groups = defaultdict(dict)
    for path in sorted(TRACE_DIR.glob("*.npz")):
        match = ENTRY.match(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            groups[key][int(match["records"])] = path
    return {key: lengths for key, lengths in groups.items() if len(lengths) > 1}


def _read(path: Path) -> dict:
    """An entry's members, read without going through the trace store
    (which may write sidecars)."""
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


class TestCommittedPrefixes:
    def test_every_length_cuts_the_longest_entry(self):
        groups = _committed_groups()
        assert groups, "no committed workload has several trace lengths"
        before = sorted((p.name, p.stat().st_mtime_ns) for p in TRACE_DIR.iterdir())
        for (workload, _seed), lengths in groups.items():
            longest = _read(lengths[max(lengths)])
            sites = longest["branch_site"]
            for records, path in lengths.items():
                entry = _read(path)
                entries = np.flatnonzero(sites[records:] == 0)
                end = records + int(entries[0]) if len(entries) else len(sites)
                for field in TRACE_ARRAY_FIELDS:
                    assert np.array_equal(entry[field], longest[field][:end]), (
                        f"{path.name}: {field} is not the r{max(lengths)} walk "
                        f"cut at its first request entry at or past {records}"
                    )
                assert bytes(entry["name"]) == bytes(longest["name"]), path.name
                assert int(entry["seed"]) == int(longest["seed"]), path.name
        after = sorted((p.name, p.stat().st_mtime_ns) for p in TRACE_DIR.iterdir())
        assert after == before, "the committed trace cache must stay untouched"


#: The committed plan cache.
PLAN_DIR = TRACE_DIR.parent / "plans"


def _committed_plan_groups():
    """(trace name, prefetcher, depth) -> {records: members}, where
    several lengths exist.  Pre-pass entries (``.pre<fingerprint>``)
    are not frontend plans."""
    groups = defaultdict(dict)
    for path in sorted(PLAN_DIR.glob("*.npz")):
        if ".pre" in path.name:
            continue
        plan = _read(path)
        key = (
            bytes(plan["trace_name"]).decode(),
            bytes(plan["prefetcher"]).decode(),
            int(plan["depth"]),
        )
        groups[key][len(plan["mispredict"])] = plan
    return {key: lengths for key, lengths in groups.items() if len(lengths) > 1}


class TestCommittedPlans:
    def test_every_plan_cuts_the_longest_plan(self):
        """Each committed plan of a workload is its longest committed
        plan cut at its length: the same mispredict flags and counts,
        and the same spans with the last ``depth`` stopped at the cut."""
        groups = _committed_plan_groups()
        assert groups, "no committed workload has several plan lengths"
        before = sorted((p.name, p.stat().st_mtime_ns) for p in PLAN_DIR.iterdir())
        for (name, kind, _depth), lengths in groups.items():
            longest = lengths[max(lengths)]
            for n, plan in lengths.items():
                where = f"{name} {kind} at {n} of {max(lengths)} records"
                assert np.array_equal(plan["mispredict"], longest["mispredict"][:n]), where
                assert np.array_equal(
                    plan["cum_mispredict"], longest["cum_mispredict"][: n + 1]
                ), where
                lo = longest["cand_lo"][:n].copy()
                hi = np.minimum(longest["cand_hi"][:n], n)
                empty = hi <= lo
                lo[empty] = 0
                hi[empty] = 0
                assert np.array_equal(plan["cand_lo"], lo), where
                assert np.array_equal(plan["cand_hi"], hi), where
        after = sorted((p.name, p.stat().st_mtime_ns) for p in PLAN_DIR.iterdir())
        assert after == before, "the committed plan cache must stay untouched"
