"""Differential-reference tests for the MSHR file and the flat hierarchy.

PR 3 changed the memory subsystem's semantics (no completed fill is
ever dropped; L2/L3 are flat LRU presence sets), which moved every
golden scalar at once.  These tests re-pin correctness the way cache
simulation studies validate fast models: a deliberately naive,
obviously-correct executable reference is replayed against the
production implementation and must agree *bit for bit* —

* :class:`NaiveMSHR` / :class:`NaiveHierarchy` re-state the documented
  contracts with linear scans and plain lists, no incremental bounds,
  no dict tricks;
* randomized allocate/drain/cancel schedules hit capacity pressure,
  duplicate blocks, same-cycle bursts and out-of-order ready cycles;
* full ``simulate()`` runs across every registered scheme on a
  20k-record grid must produce identical RunResult scalars with the
  reference subsystem swapped in; and the production engine must match
  the stack-driven reference engine (``reference/engine.py``) running
  on the reference subsystem, including under tiny MSHR files, tiny
  L2/L3 capacities and shifted warmup boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.uarch.timing as timing
from repro.frontend.plan import build_plan
from repro.frontend.stack import BranchStack
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload

import reference.engine as reference_engine
from test_frontend_plan import random_trace

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)


def _scalars(result):
    return {k: getattr(result, k) for k in SCALARS}


# -- naive references ----------------------------------------------------------


class _Entries(list):
    """``[block, ready]`` entries; ``block in entries`` scans the blocks.

    The engine tests MSHR membership as ``block in mshr.pending or
    block in mshr.deferred`` on containers it binds once, so both lists
    answer ``in`` by block and are only ever mutated in place.
    """

    def __contains__(self, block):
        return any(b == block for b, _ in self)


class NaiveMSHR:
    """Straight-line restatement of the MSHR contract.

    One list of in-flight entries in allocation order, one list of
    handed-over (deferred) fills in handover order; every query is a
    linear scan.  No ``next_ready`` caching: the bound is recomputed
    from scratch on demand, so it is always exact.
    """

    def __init__(self, entries: int = 16) -> None:
        assert entries > 0
        self.entries = entries
        self.pending = _Entries()   # [block, ready], allocation order
        self.deferred = _Entries()  # [block, ready], handover order
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def __len__(self):
        return len(self.pending) + len(self.deferred)

    def __contains__(self, block):
        return block in self.pending or block in self.deferred

    @property
    def next_ready(self):
        ready = [r for _, r in self.pending] + [r for _, r in self.deferred]
        return min(ready) if ready else float("inf")

    def ready_cycle(self, block):
        for b, r in self.pending + self.deferred:
            if b == block:
                return r
        return None

    def drain(self, now):
        done = [b for b, r in self.pending if r <= now]
        self.pending[:] = [e for e in self.pending if e[1] > now]
        done += [b for b, r in self.deferred if r <= now]
        self.deferred[:] = [e for e in self.deferred if e[1] > now]
        return done

    def allocate(self, block, ready_cycle, now):
        existing = self.ready_cycle(block)
        if existing is not None:
            self.merges += 1
            return existing
        if len(self.pending) >= self.entries:
            self.full_stalls += 1
            earliest = min(self.pending, key=lambda e: e[1])
            self.pending.remove(earliest)
            self.deferred.append(earliest)
            ready_cycle += max(0, earliest[1] - now)
        self.pending.append([block, ready_cycle])
        self.allocations += 1
        return ready_cycle

    def cancel(self, block):
        self.pending[:] = [e for e in self.pending if e[0] != block]
        self.deferred[:] = [e for e in self.deferred if e[0] != block]


class NaiveHierarchy:
    """List-based LRU presence model: index 0 is LRU, append is MRU."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.l2 = []
        self.l3 = []
        self.l2_hits = 0
        self.l3_hits = 0
        self.dram_fills = 0

    def _fill(self, level, cap, block):
        if len(level) >= cap:
            level.pop(0)
        level.append(block)

    def access(self, block, t=0):
        cfg = self.config
        if block in self.l2:
            self.l2.remove(block)
            self.l2.append(block)
            self.l2_hits += 1
            return cfg.l2_latency
        if block in self.l3:
            self.l3.remove(block)
            self.l3.append(block)
            self._fill(self.l2, cfg.l2_blocks, block)
            self.l3_hits += 1
            return cfg.l3_latency
        self.dram_fills += 1
        self._fill(self.l3, cfg.l3_blocks, block)
        self._fill(self.l2, cfg.l2_blocks, block)
        return cfg.dram_latency


# -- randomized schedule differentials ----------------------------------------


def _check_mshr_agreement(prod: MSHRFile, ref: NaiveMSHR, blocks) -> None:
    assert len(prod) == len(ref)
    for b in blocks:
        assert (b in prod) == (b in ref), b
        assert prod.ready_cycle(b) == ref.ready_cycle(b), b
    # The production bound may be stale-low after cancels, never high.
    assert prod.next_ready <= ref.next_ready
    assert prod.stats.allocations == ref.allocations
    assert prod.stats.merges == ref.merges
    assert prod.stats.full_stalls == ref.full_stalls


class TestMSHRSchedules:
    """Randomized op schedules: production MSHR == naive reference."""

    @pytest.mark.parametrize("entries", [1, 2, 3, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_randomized_schedule(self, entries, seed):
        rng = np.random.RandomState(1000 * entries + seed)
        prod, ref = MSHRFile(entries), NaiveMSHR(entries)
        blocks = list(range(8))  # small pool => duplicates and merges
        now = 0
        for _ in range(400):
            op = rng.randint(4)
            if op == 0:  # allocate (with duplicate pressure)
                block = int(rng.choice(blocks))
                latency = int(rng.randint(1, 60))
                got = prod.allocate(block, now + latency, now)
                want = ref.allocate(block, now + latency, now)
                assert got == want
            elif op == 1:  # drain, sometimes without advancing time
                assert prod.drain(now) == ref.drain(now)
            elif op == 2:  # cancel (resident or absent)
                block = int(rng.choice(blocks))
                prod.cancel(block)
                ref.cancel(block)
            else:  # probe-only step
                pass
            _check_mshr_agreement(prod, ref, blocks)
            # Advance time in bursts: ~40% of steps stay on the same
            # cycle (same-record op bursts), the rest jump, sometimes
            # far past every outstanding ready cycle.
            if rng.rand() < 0.6:
                now += int(rng.randint(1, 80))
        assert prod.drain(now + 10_000) == ref.drain(now + 10_000)
        assert len(prod) == len(ref) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capacity_cascade(self, seed):
        """Back-to-back allocations on a full file (handover chains)."""
        rng = np.random.RandomState(seed)
        prod, ref = MSHRFile(2), NaiveMSHR(2)
        now = 0
        for step in range(100):
            for _ in range(int(rng.randint(1, 6))):  # same-cycle burst
                block = int(rng.randint(0, 6))
                latency = int(rng.randint(1, 30))
                assert prod.allocate(block, now + latency, now) == ref.allocate(
                    block, now + latency, now
                )
                _check_mshr_agreement(prod, ref, range(6))
            assert prod.drain(now) == ref.drain(now)
            now += int(rng.randint(0, 25))
        assert prod.drain(now + 10_000) == ref.drain(now + 10_000)


class TestHierarchySchedules:
    """Randomized access streams: flat dict model == naive list model."""

    @pytest.mark.parametrize(
        "l2_blocks,l3_blocks", [(1, 2), (2, 4), (4, 8), (16, 64)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_stream(self, l2_blocks, l3_blocks, seed):
        cfg = HierarchyConfig(
            l2_size_bytes=l2_blocks * 64, l3_size_bytes=l3_blocks * 64
        )
        prod, ref = MemoryHierarchy(cfg), NaiveHierarchy(cfg)
        rng = np.random.RandomState(100 * seed + l2_blocks)
        # Block pool ~2x the L3 so both levels continuously evict.
        pool = max(2, 2 * l3_blocks)
        for t in range(3000):
            block = int(rng.randint(pool))
            assert prod.access(block, t) == ref.access(block, t), t
            assert prod.in_l2(block) and block in ref.l2
        assert prod.stats.l2_hits == ref.l2_hits
        assert prod.stats.l3_hits == ref.l3_hits
        assert prod.stats.dram_fills == ref.dram_fills
        # Full presence agreement, including recency-order-driven state.
        for b in range(pool):
            assert prod.in_l2(b) == (b in ref.l2), b
            assert prod.in_l3(b) == (b in ref.l3), b

    def test_skewed_stream_matches(self):
        """Zipf-ish reuse (the i-footprint shape) instead of uniform."""
        cfg = HierarchyConfig(l2_size_bytes=8 * 64, l3_size_bytes=32 * 64)
        prod, ref = MemoryHierarchy(cfg), NaiveHierarchy(cfg)
        rng = np.random.RandomState(42)
        hot = rng.randint(0, 16, size=4000)
        cold = rng.randint(0, 400, size=4000)
        pick = rng.rand(4000) < 0.7
        stream = np.where(pick, hot, cold)
        for t, block in enumerate(stream.tolist()):
            assert prod.access(block, t) == ref.access(block, t), t
        assert prod.stats.dram_fills == ref.dram_fills


# -- full-engine differentials -------------------------------------------------


def _ref_run(trace, scheme_name, machine, context, monkeypatch, plan=None):
    """The naive MSHR + hierarchy swapped in.

    With a ``plan`` the production engine drives them; without one the
    stack-driven reference engine does, with a fresh stack and FDP.
    """
    with monkeypatch.context() as m:
        m.setattr(timing, "MSHRFile", NaiveMSHR)
        m.setattr(reference_engine, "MSHRFile", NaiveMSHR)
        scheme = make_scheme(scheme_name, context)
        hierarchy = NaiveHierarchy(machine.hierarchy)
        if plan is not None:
            return simulate(
                trace, scheme, machine=machine, hierarchy=hierarchy, plan=plan
            )
        stack = BranchStack(trace)
        pf = reference_engine.build_prefetcher("fdp", trace, stack, machine)
        return reference_engine.simulate_live(
            trace, scheme, pf, stack, machine, hierarchy=hierarchy
        )


def _prod_run(trace, scheme_name, machine, context, plan=None):
    """The production engine on ``plan`` (default: a fresh fdp plan)."""
    plan = plan or build_plan(trace, machine, "fdp")
    scheme = make_scheme(scheme_name, context)
    return simulate(trace, scheme, machine=machine, plan=plan)


class TestSimulateDifferential:
    """Production subsystem == naive subsystem through the full engine."""

    def test_all_registered_schemes_on_20k_grid(self, monkeypatch):
        """Acceptance gate: every scheme, one 20k grid, plan-driven.

        One shared context (as sweeps share it); the production MSHR +
        flat hierarchy must match the naive reference scalar for scalar
        on every registered scheme.
        """
        trace = get_workload("media-streaming").trace(records=20_000)
        machine = DEFAULT_MACHINE
        plan = build_plan(trace, machine, "fdp")
        context = SchemeContext(trace=trace, machine=machine)
        for scheme_name in sorted(available_schemes()):
            prod = _prod_run(trace, scheme_name, machine, context, plan=plan)
            ref = _ref_run(
                trace, scheme_name, machine, context, monkeypatch, plan=plan
            )
            assert _scalars(prod) == _scalars(ref), scheme_name

    @pytest.mark.parametrize("scheme_name", ["lru", "acic", "opt"])
    def test_live_path_matches_reference(self, scheme_name, monkeypatch):
        """Plan-driven production engine == stack + FDP reference engine,
        each on its own subsystem."""
        trace = random_trace(21, n=4000)
        machine = DEFAULT_MACHINE
        context = SchemeContext(trace=trace, machine=machine)
        prod = _prod_run(trace, scheme_name, machine, context)
        ref = _ref_run(trace, scheme_name, machine, context, monkeypatch)
        assert _scalars(prod) == _scalars(ref)

    @pytest.mark.parametrize("mshr_entries", [1, 2, 4])
    def test_tiny_mshr_file_forces_handovers(self, mshr_entries, monkeypatch):
        """Capacity pressure inside real runs (handover chains live)."""
        machine = MachineParams(mshr_entries=mshr_entries)
        trace = random_trace(22, n=4000)
        context = SchemeContext(trace=trace, machine=machine)
        prod = _prod_run(trace, "lru", machine, context)
        ref = _ref_run(trace, "lru", machine, context, monkeypatch)
        assert _scalars(prod) == _scalars(ref)

    def test_tiny_hierarchy_forces_evictions(self, monkeypatch):
        """Continuous L2/L3 eviction inside real runs."""
        machine = MachineParams(
            hierarchy=HierarchyConfig(
                l2_size_bytes=16 * 64, l3_size_bytes=64 * 64
            )
        )
        trace = random_trace(23, n=4000)
        context = SchemeContext(trace=trace, machine=machine)
        prod = _prod_run(trace, "acic", machine, context)
        ref = _ref_run(trace, "acic", machine, context, monkeypatch)
        assert _scalars(prod) == _scalars(ref)

    @pytest.mark.parametrize("warmup", [0.0, 0.1, 0.5, 0.9])
    def test_warmup_boundaries(self, warmup, monkeypatch):
        machine = MachineParams(warmup_fraction=warmup)
        trace = random_trace(24, n=3000)
        context = SchemeContext(trace=trace, machine=machine)
        prod = _prod_run(trace, "lru", machine, context)
        ref = _ref_run(trace, "lru", machine, context, monkeypatch)
        assert _scalars(prod) == _scalars(ref)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_traces(self, seed, monkeypatch):
        trace = random_trace(seed, n=3000)
        machine = DEFAULT_MACHINE
        context = SchemeContext(trace=trace, machine=machine)
        prod = _prod_run(trace, "acic", machine, context)
        ref = _ref_run(trace, "acic", machine, context, monkeypatch)
        assert _scalars(prod) == _scalars(ref)


class TestFillDeliveryInsideSimulate:
    """The artifact itself: completed prefetch fills must reach the scheme."""

    @pytest.mark.parametrize("mshr_entries", [2, 16])
    def test_fill_conservation_ledger(self, mshr_entries, monkeypatch):
        """Every allocated prefetch is delivered, taken over, or in flight.

        The ledger the seed model violated: its ``allocate`` drained and
        discarded completed fills, so allocations exceeded deliveries +
        demand takeovers + end-of-trace residue.
        """

        class CountingMSHR(MSHRFile):
            def __init__(self, entries):
                super().__init__(entries)
                self.cancels = 0
                self.drained = 0

            def cancel(self, block):
                self.cancels += 1  # engine cancels only on demand takeover
                super().cancel(block)

            def drain(self, now):
                done = super().drain(now)
                self.drained += len(done)
                return done

        captured = {}

        def capturing(entries):
            captured["mshr"] = CountingMSHR(entries)
            return captured["mshr"]

        monkeypatch.setattr(timing, "MSHRFile", capturing)
        machine = MachineParams(mshr_entries=mshr_entries)
        trace = get_workload("media-streaming").trace(records=20_000)
        context = SchemeContext(trace=trace, machine=machine)
        scheme = make_scheme("lru", context)
        deliveries = []
        original_fill = scheme.prefetch_fill
        scheme.prefetch_fill = lambda block, t, cycle: (
            deliveries.append(block), original_fill(block, t, cycle)
        )[1]
        simulate(
            trace, scheme, machine=machine, plan=build_plan(trace, machine, "fdp")
        )
        mshr = captured["mshr"]
        assert mshr.stats.allocations > 0
        # Every drained fill reached the scheme's prefetch_fill hook.
        assert len(deliveries) == mshr.drained
        # And the ledger closes: nothing vanished.
        assert mshr.stats.allocations == (
            mshr.drained + mshr.cancels + len(mshr)
        )

    def test_mid_record_fill_reaches_scheme(self):
        """Deterministic reconstruction of the seed artifact.

        A prefetch completes *during* a demand stall; the next allocate
        in the same record must not discard it — the scheme sees the
        fill (seed behaviour: silently vanished).
        """
        mshr = MSHRFile(4)
        mshr.allocate(7, ready_cycle=10, now=0)
        # Seed's allocate(now=50) drained-and-dropped block 7; now it
        # must survive to the next drain.
        mshr.allocate(9, ready_cycle=80, now=50)
        assert 7 in mshr
        assert mshr.drain(50) == [7]
