"""Every trace length is a prefix of one shared, resumable walk.

A walk for ``T`` records stops at the first request entry (the record
fetched through the program's dispatch site, site 0) at or past ``T``,
or at the emission limit, so :class:`~repro.workloads.generator.Walk`
serves every length as a cut of one walk, growing it on demand.  These
tests pin that the cuts equal fresh single-length walks whatever order
the lengths are asked in, across the emission limit and across threads,
that a profile's resident walk serves its traces ahead of the trace
cache, and that the committed ``.cache/traces`` entries obey the same
prefix property, as the committed ``.cache/plans`` entries obey its
plan twin (a plan of a shorter trace is the longest plan cut, see
``test_cut_plans.py``).
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

from repro.workloads import profiles
from repro.workloads.generator import (
    Walk,
    WalkParams,
    emission_limit,
    generate_trace,
)
from repro.workloads.profiles import get_workload
from repro.workloads.program import ProgramShape, build_program
from repro.workloads.trace import TRACE_ARRAY_FIELDS, TRACE_STORE

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
        profile.trace(records=5000)
        name = f"{profile.name}-r3000-s{profile.seed}"
        assert store_gets == [name]
        assert [p.name for p in tmp_path.glob("*.npz")] == [f"{name}.npz"]

    @pytest.mark.parametrize(
        "records, grows", [(2000, False), (20000, True)], ids=["shorter", "grows"]
    )
    def test_resident_walk_serves_ahead_of_the_store(
        self, profile, tmp_path, store_gets, records, grows
    ):
        """A resident walk cuts the trace without reading or writing the
        trace cache, growing first when the length needs it."""
        profile.trace(records=3000)  # starts the walk
        walk = profiles._walks[(profile, profile.seed)]
        walked = len(walk)
        files = sorted(tmp_path.rglob("*"))
        store_gets.clear()
        trace = profile.trace(records=records)
        assert store_gets == []
        assert sorted(tmp_path.rglob("*")) == files
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
