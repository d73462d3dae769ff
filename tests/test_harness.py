"""Tests for the timing engine, scheme registry, runner and tables."""

import numpy as np
import pytest

from repro.frontend.fdp import NullPrefetcher
from repro.frontend.stack import BranchStack
from repro.harness.experiment import build_prefetcher, run_experiment, scaled_records
from repro.harness.runner import Runner
from repro.harness.schemes import (
    SchemeContext,
    available_schemes,
    make_scheme,
    scheme_needs_oracle,
)
from repro.harness.tables import format_table, reduction_table, speedup_table
from repro.uarch.params import DEFAULT_MACHINE, MachineParams
from repro.uarch.timing import RunResult, simulate
from repro.workloads.trace import Trace


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


class TestTimingEngine:
    def test_counts_misses_and_instructions(self):
        trace = straight_line_trace()
        ctx = SchemeContext(trace=trace)
        scheme = make_scheme("lru", ctx)
        machine = MachineParams(warmup_fraction=0.0)
        result = simulate(
            trace, scheme, NullPrefetcher(trace), BranchStack(trace), machine
        )
        assert result.accesses == len(trace)
        assert result.instructions == trace.total_instructions
        assert result.demand_misses > 0
        assert result.cycles > len(trace)  # misses cost extra cycles

    def test_warmup_excluded(self):
        trace = straight_line_trace()
        ctx = SchemeContext(trace=trace)
        machine = MachineParams(warmup_fraction=0.5)
        result = simulate(
            trace,
            make_scheme("lru", ctx),
            NullPrefetcher(trace),
            BranchStack(trace),
            machine,
        )
        assert result.accesses == len(trace) // 2

    def test_small_footprint_all_hits_after_warmup(self):
        trace = straight_line_trace(n=4000, footprint=64)
        ctx = SchemeContext(trace=trace)
        machine = MachineParams(warmup_fraction=0.1)
        result = simulate(
            trace,
            make_scheme("lru", ctx),
            NullPrefetcher(trace),
            BranchStack(trace),
            machine,
        )
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

    def test_oracle_flags(self):
        assert scheme_needs_oracle("opt")
        assert scheme_needs_oracle("opt-bypass")
        assert not scheme_needs_oracle("lru")

    def test_unknown_scheme_raises(self, tiny_trace):
        ctx = SchemeContext(trace=tiny_trace)
        with pytest.raises(KeyError, match="unknown scheme"):
            make_scheme("bogus", ctx)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_scheme_simulates(self, name, tiny_trace):
        """Integration: each scheme runs end-to-end on a tiny trace."""
        ctx = SchemeContext(trace=tiny_trace)
        scheme = make_scheme(name, ctx)
        stack = BranchStack(tiny_trace)
        prefetcher = build_prefetcher("fdp", tiny_trace, stack, DEFAULT_MACHINE)
        result = simulate(tiny_trace, scheme, prefetcher, stack, DEFAULT_MACHINE)
        assert result.cycles > 0
        assert 0 <= result.demand_misses <= result.accesses


class TestPrefetcherFactory:
    def test_known_prefetchers(self, tiny_trace):
        stack = BranchStack(tiny_trace)
        for name in ("fdp", "entangling", "none"):
            pf = build_prefetcher(name, tiny_trace, stack, DEFAULT_MACHINE)
            assert pf.name in (name, "none")

    def test_unknown_raises(self, tiny_trace):
        with pytest.raises(KeyError):
            build_prefetcher("bogus", tiny_trace, BranchStack(tiny_trace),
                             DEFAULT_MACHINE)


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
