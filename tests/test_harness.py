"""Tests for the timing engine, scheme registry, runner and tables."""

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.frontend.plan import build_plan
from repro.harness.experiment import PREFETCHERS, run_experiment, scaled_records
from repro.harness.runner import Runner
from repro.harness.schemes import (
    SchemeContext,
    available_schemes,
    make_scheme,
)
from repro.harness.tables import format_table, reduction_table, speedup_table
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult, simulate
from repro.workloads.trace import Trace
from reference.engine import live_run


def straight_line_trace(n=2000, footprint=600):
    """A trivially sequential trace cycling over `footprint` blocks."""
    blocks = np.arange(n, dtype=np.int64) % footprint
    return Trace(
        name="seq",
        blocks=blocks,
        instrs=np.full(n, 6, dtype=np.uint8),
        branch_kind=np.zeros(n, dtype=np.uint8),
        branch_site=np.full(n, -1, dtype=np.int64),
    )


def no_prefetch_run(trace, scheme, machine):
    """``simulate`` on the trace's ``none`` plan (no prefetching)."""
    plan = build_plan(trace, machine, "none")
    return simulate(trace, scheme, machine=machine, plan=plan)


class TestTimingEngine:
    def test_counts_misses_and_instructions(self):
        trace = straight_line_trace()
        ctx = SchemeContext(trace=trace)
        scheme = make_scheme("lru", ctx)
        machine = MachineParams(warmup_fraction=0.0)
        result = no_prefetch_run(trace, scheme, machine)
        assert result.accesses == len(trace)
        assert result.instructions == trace.total_instructions
        assert result.demand_misses > 0
        assert result.cycles > len(trace)  # misses cost extra cycles

    def test_warmup_excluded(self):
        trace = straight_line_trace()
        ctx = SchemeContext(trace=trace)
        machine = MachineParams(warmup_fraction=0.5)
        result = no_prefetch_run(trace, make_scheme("lru", ctx), machine)
        assert result.accesses == len(trace) // 2

    def test_small_footprint_all_hits_after_warmup(self):
        trace = straight_line_trace(n=4000, footprint=64)
        ctx = SchemeContext(trace=trace)
        machine = MachineParams(warmup_fraction=0.1)
        result = no_prefetch_run(trace, make_scheme("lru", ctx), machine)
        assert result.demand_misses == 0
        assert result.mpki == 0.0

    def test_speedup_identity(self):
        r = RunResult("w", "s", "p", instructions=100, accesses=10, cycles=50.0)
        assert r.speedup_over(r) == 1.0

    def test_mpki_reduction(self):
        base = RunResult("w", "b", "p", instructions=1000, accesses=10,
                         cycles=1.0, demand_misses=100)
        better = RunResult("w", "s", "p", instructions=1000, accesses=10,
                           cycles=1.0, demand_misses=80)
        assert better.mpki_reduction_over(base) == pytest.approx(20.0)


class TestSchemeRegistry:
    EXPECTED = {
        "lru", "plru", "srrip", "ship", "harmony", "ghrp", "opt",
        "36kb-l1i", "40kb-l1i", "vc3k", "vvc", "dsb", "dsb+ifilter",
        "obm", "ifilter-always", "access-count", "opt-bypass",
        "random-bypass", "acic", "acic-audit", "acic-instant",
        "acic-nofilter", "acic-global", "acic-bimodal",
    }

    def test_registry_contains_every_table4_row(self):
        names = set(available_schemes())
        assert self.EXPECTED <= names

    def test_sensitivity_variants_registered(self):
        names = set(available_schemes())
        for v in ("acic-hrt512", "acic-hrt2k", "acic-hist8", "acic-hist10",
                  "acic-ctr2", "acic-ctr8", "acic-if8", "acic-if32",
                  "acic-tag7", "acic-tag27"):
            assert v in names

    def test_oracle_flags(self, tiny_trace):
        """Exactly the oracle schemes build their context's oracle."""
        built = set()
        for name in available_schemes():
            ctx = SchemeContext(trace=tiny_trace)
            make_scheme(name, ctx)
            if ctx._oracle is not None:
                built.add(name)
        assert built == {"opt", "opt-bypass", "random-bypass", "acic-audit"}

    def test_unknown_scheme_raises(self, tiny_trace):
        ctx = SchemeContext(trace=tiny_trace)
        with pytest.raises(KeyError, match="unknown scheme"):
            make_scheme("bogus", ctx)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_scheme_simulates(self, name, tiny_trace):
        """Integration: each scheme runs end-to-end on a tiny trace, and
        the plan-driven engine matches the stack-driven reference."""
        ctx = SchemeContext(trace=tiny_trace)
        plan = build_plan(tiny_trace, DEFAULT_MACHINE, "fdp")
        result = simulate(
            tiny_trace, make_scheme(name, ctx), machine=DEFAULT_MACHINE, plan=plan
        )
        assert result.cycles > 0
        assert 0 <= result.demand_misses <= result.accesses
        reference = live_run(
            tiny_trace, make_scheme(name, ctx), "fdp", DEFAULT_MACHINE
        )
        assert result.cycles == reference.cycles
        assert result.demand_misses == reference.demand_misses


class TestPrefetcherFactory:
    """``run_experiment`` maps each prefetcher name to its frontend."""

    def test_known_prefetchers(self, tiny_trace, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        ctx = SchemeContext(trace=tiny_trace)
        for name in PREFETCHERS:
            result = run_experiment(
                "tiny", "lru", prefetcher=name, context=ctx, shard_window=0
            )
            assert result.run.prefetcher_name == name
            reference = live_run(
                tiny_trace, make_scheme("lru", ctx), name, DEFAULT_MACHINE
            )
            assert result.run.cycles == reference.cycles, name
            assert result.run.prefetches_issued == reference.prefetches_issued

    def test_unknown_raises(self, tiny_trace, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        with pytest.raises(KeyError):
            run_experiment(
                "tiny", "lru", prefetcher="bogus",
                context=SchemeContext(trace=tiny_trace),
            )


class TestMachineFingerprint:
    """``fingerprint()`` is computed once per instance, and stays the
    content hash of its fields."""

    @staticmethod
    def fresh_hash(machine):
        blob = json.dumps(dataclasses.asdict(machine), sort_keys=True, default=str)
        return hashlib.sha1(blob.encode()).hexdigest()[:10]

    def test_equals_a_fresh_hash_of_the_fields(self):
        for machine in (DEFAULT_MACHINE, MachineParams(backend_ipc=3.5)):
            assert machine.fingerprint() == self.fresh_hash(machine)
            assert machine.fingerprint() == machine.fingerprint()

    def test_replace_hashes_the_new_fields(self):
        DEFAULT_MACHINE.fingerprint()  # memoized on the original
        wider = dataclasses.replace(DEFAULT_MACHINE, fetch_width=8)
        assert wider.fingerprint() != DEFAULT_MACHINE.fingerprint()
        assert wider.fingerprint() == self.fresh_hash(wider)
        same = dataclasses.replace(DEFAULT_MACHINE)
        assert same.fingerprint() == DEFAULT_MACHINE.fingerprint()

    def test_survives_pickling(self):
        machine = MachineParams(mshr_entries=8)
        machine.fingerprint()
        for copy in (
            pickle.loads(pickle.dumps(machine)),
            pickle.loads(pickle.dumps(MachineParams(mshr_entries=8))),
        ):
            assert copy == machine and hash(copy) == hash(machine)
            assert copy.fingerprint() == machine.fingerprint()
            assert copy.fingerprint() == self.fresh_hash(copy)


class TestScaledRecords:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scaled_records(1234) == 1234


class TestRunner:
    def test_memory_cache_hits(self, monkeypatch):
        runner = Runner(records=4000, use_disk_cache=False)
        first = runner.run("x264", "lru")
        second = runner.run("x264", "lru")
        assert first is second

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        r1 = Runner(records=4000, use_disk_cache=True)
        first = r1.run("x264", "lru")
        r2 = Runner(records=4000, use_disk_cache=True)
        second = r2.run("x264", "lru")
        assert second.demand_misses == first.demand_misses
        assert second.cycles == pytest.approx(first.cycles)

    def test_speedup_and_reduction(self):
        runner = Runner(records=4000, use_disk_cache=False)
        assert runner.speedup("x264", "lru", baseline="lru") == 1.0
        assert runner.mpki_reduction("x264", "lru", baseline="lru") == 0.0

    def test_run_live_provides_scheme(self):
        runner = Runner(records=4000, use_disk_cache=False)
        result = runner.run_live("x264", "acic")
        assert result.scheme is not None

    def test_experiment_api(self):
        result = run_experiment("x264", "lru", records=4000)
        assert result.workload == "x264"
        assert result.run.cycles > 0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1.0, "x"], [2.5, "yyy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.0000" in text

    def test_speedup_table(self):
        text = speedup_table(
            {"w": {"s": 1.02}}, ["w"], ["s"], title="T", geomeans={"s": 1.02}
        )
        assert "gmean" in text and "1.0200" in text

    def test_reduction_table(self):
        text = reduction_table(
            {"w": {"s": 12.5}}, ["w"], ["s"], title="T", averages={"s": 12.5}
        )
        assert "+12.50%" in text
