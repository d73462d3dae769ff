#!/usr/bin/env python
"""Line-coverage floors for the mem/core/frontend/harness subsystems, stdlib-only.

Usage::

    PYTHONPATH=src python scripts/coverage_gate.py              # default gates
    PYTHONPATH=src python scripts/coverage_gate.py --floor 90
    PYTHONPATH=src python scripts/coverage_gate.py --target src/repro/mem
    PYTHONPATH=src python scripts/coverage_gate.py --target src/repro/common/artifacts.py
    PYTHONPATH=src python scripts/coverage_gate.py tests/test_policies.py

Runs a subsystem-focused pytest selection under the stdlib ``trace``
module (no ``coverage``/``pytest-cov`` dependency) and fails when the
aggregate executed-line fraction of any target directory — by default
``src/repro/mem``, ``src/repro/core``, ``src/repro/frontend``,
``src/repro/harness`` and ``src/repro/service`` — drops below the
floor.  CI runs this after the
tier-1 suite so a PR cannot silently orphan the MSHR/hierarchy/policy,
i-Filter/CSHR/predictor/flat-controller, branch-stack/FDP/entangling/plan,
or runner/shard-ledger/fault-recovery code paths the differential
harnesses exist to pin.  The readable twins those harnesses compare
against live under ``tests/reference/`` and are not measured.
(Sweep-worker bodies run in forked pool processes the stdlib tracer
cannot see; their lines are the main untraced remainder in
``harness``.)

The default test selection deliberately excludes the large
whole-engine grids (they add minutes under ``sys.settrace`` and no
target lines the unit/property/differential-schedule tests miss).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import trace as trace_mod
import types
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

#: Fast, subsystem-focused selection: unit + differential-schedule +
#: property tests.  "not 20k and not Simulate and not conservation"
#: drops the full-engine grids only.
DEFAULT_PYTEST_ARGS = [
    "-q",
    "--no-header",
    "-p", "no:cacheprovider",
    "tests/test_mem_components.py",
    "tests/test_cache_properties.py",
    "tests/test_policies.py",
    "tests/test_policy_differential.py",
    "tests/test_oracle.py",
    "tests/test_mshr_differential.py",
    "tests/test_acic_core.py",
    "tests/test_acic_differential.py",
    "tests/test_frontend.py",
    "tests/test_frontend_plan.py",
    "tests/test_cut_plans.py",
    "tests/test_tage_differential.py",
    "tests/test_entangling_table.py",
    "tests/test_harness.py",
    "tests/test_runner_cache.py",
    "tests/test_state_roundtrip.py",
    "tests/test_checkpoint.py",
    "tests/test_fault_injection.py",
    "tests/test_throughput_bench.py",
    "tests/test_service.py",
    "tests/test_sweep_bugs.py",
    "tests/test_shards.py",
    "tests/test_service_drain.py",
    "tests/test_workloads.py",
    "tests/test_trace_sidecar.py",
    "tests/test_artifacts.py",
    "tests/test_durable.py",
    "tests/test_generator_properties.py",
    "tests/test_search_strategies.py",
    "tests/test_search_harness.py",
    # Sigterm excluded: the subprocess server's coverage is invisible
    # to the in-process tracer and the spawn costs the gate seconds.
    "-k", "not 20k and not Simulate and not conservation and not Sigterm"
    " and not all_workload_profiles",
]

#: Directories the floor applies to when no --target is given.
DEFAULT_TARGETS = [
    "src/repro/mem",
    "src/repro/mem/policies",
    "src/repro/core",
    "src/repro/frontend",
    "src/repro/harness",
    "src/repro/service",
    "src/repro/workloads",
    # Files, not src/repro/common: that directory's stats.py is
    # exercised by the benchmarks, not this selection.
    "src/repro/common/artifacts.py",
    "src/repro/common/durable.py",
]


class _PrefixIgnore:
    """Path-keyed ignore predicate for ``trace.Trace``.

    The stdlib ``trace._Ignore`` caches verdicts by *bare module name*,
    so once an ignored-dir module named e.g. ``runner`` (pytest's
    ``_pytest/runner.py``) is seen, same-named project modules
    (``src/repro/harness/runner.py``) silently stop being traced and
    score 0%.  Keying by filename restores correct per-file verdicts.
    """

    def __init__(self, dirs: list[str]) -> None:
        self._dirs = tuple(os.path.join(os.path.abspath(d), "") for d in dirs)
        self._cache: dict[str, int] = {}

    def names(self, filename: str, modulename: str) -> int:
        verdict = self._cache.get(filename)
        if verdict is None:
            verdict = int(os.path.abspath(filename).startswith(self._dirs))
            self._cache[filename] = verdict
        return verdict


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {ln for _, _, ln in code.co_lines() if ln}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler marks executable in ``path``."""
    try:
        return set(trace_mod._find_executable_linenos(str(path)))
    except Exception:
        source = path.read_text()
        return _code_lines(compile(source, str(path), "exec"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target",
        action="append",
        default=None,
        help="directory or file (relative to the repo root) the floor "
        "applies to; repeatable (default: DEFAULT_TARGETS)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=85.0,
        help="minimum aggregate executed-line percentage",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="pytest selection (default: the mem-focused subset)",
    )
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or DEFAULT_PYTEST_ARGS

    import pytest

    os.chdir(REPO)
    tracer = trace_mod.Trace(
        count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix]
    )
    tracer.ignore = _PrefixIgnore([sys.prefix, sys.exec_prefix])
    # ``Trace.runfunc`` only installs sys.settrace on *this* thread; the
    # sweep service runs its event loop and simulations on background
    # threads, so arm the tracer for every thread started under the run.
    threading.settrace(tracer.globaltrace)
    try:
        rc = tracer.runfunc(pytest.main, list(pytest_args))
    finally:
        threading.settrace(None)
    if rc != 0:
        print(f"coverage gate: pytest failed (exit {rc})", file=sys.stderr)
        return int(rc) or 1

    executed: dict[str, set[int]] = defaultdict(set)
    for (filename, lineno), hits in tracer.results().counts.items():
        if hits:
            executed[os.path.abspath(filename)].add(lineno)

    # Stdlib-trace wart: its ignore cache is keyed by bare module name,
    # so once an ignored-dir ``__init__`` is seen, *every* package
    # ``__init__.py`` stops being traced.  Package initialisers are
    # straight-line re-export code, so credit them fully when the run
    # actually imported them.
    imported = {
        getattr(mod, "__file__", None) for mod in list(sys.modules.values())
    }
    for filename in imported:
        if (
            filename
            and filename.endswith("__init__.py")
            and os.path.abspath(filename) not in executed
        ):
            path = Path(filename)
            try:
                executed[os.path.abspath(filename)] = executable_lines(path)
            except OSError:
                pass

    failures = []
    for target_rel in args.target or DEFAULT_TARGETS:
        target = (REPO / target_rel).resolve()
        files = [target] if target.is_file() else sorted(target.rglob("*.py"))
        if not files:
            print(
                f"coverage gate: no Python files at {target_rel}",
                file=sys.stderr,
            )
            return 1
        total_hit = total_lines = 0
        width = max(len(str(p.relative_to(REPO))) for p in files)
        print(f"\ncoverage of {target_rel} (floor {args.floor:.0f}%):")
        for path in files:
            lines = executable_lines(path)
            hit = executed.get(str(path), set()) & lines
            total_hit += len(hit)
            total_lines += len(lines)
            pct = 100.0 * len(hit) / len(lines) if lines else 100.0
            rel = str(path.relative_to(REPO))
            print(f"  {rel:<{width}}  {len(hit):>4}/{len(lines):<4}  {pct:6.1f}%")
        overall = 100.0 * total_hit / total_lines if total_lines else 100.0
        print(
            f"  {'TOTAL':<{width}}  {total_hit:>4}/{total_lines:<4}  {overall:6.1f}%"
        )
        if overall < args.floor:
            failures.append((target_rel, overall))
        else:
            print(f"coverage gate: {target_rel} {overall:.1f}% >= floor {args.floor:.1f}%")
    for target_rel, overall in failures:
        print(
            f"coverage gate: {target_rel} {overall:.1f}% < floor {args.floor:.1f}%",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
