"""The engine checkpoint contract, for every registered scheme.

Resumable runs (the shard ledger, ``repro/harness/shards.py``) rest on
one capture: ``simulate`` pickles its collaborators (scheme, MSHRs,
hierarchy, live prefetcher) in one go, holding the trace and the
next-use oracle by reference only.  These tests pin that contract:

* every registered scheme, and the entangling prefetcher, cut at a
  random record, pickled across a simulated process boundary and
  resumed with fresh collaborators, finishes with the scalars and the
  final state of the uninterrupted run;
* a capture holds no trace or oracle bytes, and a resume resolves the
  references to the run's own trace and the fresh scheme's oracle;
* the aliasing between collaborators survives the pickle;
* an unknown reference, or a capture of another scheme class, raises;
* no ``src/`` class grows a hand-written ``save_state``/``load_state``
  again.
"""

from __future__ import annotations

import ast
import io
import pickle
import random
from pathlib import Path

import pytest

from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.plan import build_plan, cached_plan
from repro.harness.schemes import (
    SchemeContext,
    available_schemes,
    make_scheme,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.uarch import timing
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import get_workload
from reference import readable_registry
from reference.acic import ACICScheme
from reference.state import ordered

RECORDS = 2_000
WORKLOAD = "x264"

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def setup():
    # The plans and pre-passes of this short trace stay in memory.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        trace = get_workload(WORKLOAD).trace(records=RECORDS)
        context = SchemeContext(trace=trace, machine=DEFAULT_MACHINE)
        plans = {
            "fdp": cached_plan(trace, DEFAULT_MACHINE, "fdp"),
            "none": build_plan(trace, DEFAULT_MACHINE, "none"),
        }
        yield trace, context, plans


def _kwargs(setup, live: bool) -> dict:
    """Fresh run arguments: fdp-planned, or a live entangling prefetcher."""
    trace, _, plans = setup
    if live:
        return dict(plan=plans["none"], prefetcher=EntanglingPrefetcher(trace))
    return dict(plan=plans["fdp"])


def _fresh_parts(setup, name: str, live: bool = False) -> dict:
    """The collaborators ``simulate`` would build for a fresh run."""
    trace, context, _ = setup
    parts = {
        "scheme": make_scheme(name, context),
        "mshr": MSHRFile(DEFAULT_MACHINE.mshr_entries),
        "hierarchy": MemoryHierarchy(DEFAULT_MACHINE.hierarchy),
    }
    if live:
        parts["prefetcher"] = EntanglingPrefetcher(trace)
    return parts


def _capture_at(setup, name: str, cut: int, live: bool = False) -> dict:
    """The engine state before record ``cut``, pickled and loaded back."""
    trace, context, _ = setup
    captured = []
    halted = simulate(
        trace,
        make_scheme(name, context),
        machine=DEFAULT_MACHINE,
        checkpoint_every=cut,
        on_checkpoint=lambda s: captured.append(s) or True,
        **_kwargs(setup, live),
    )
    assert halted is None and captured[0]["next_record"] == cut
    return pickle.loads(pickle.dumps(captured[0]))


def _roundtrip(setup, name: str, seed: int, live: bool = False):
    """Cut ``name``'s run at a random record, resume it, compare."""
    trace, context, _ = setup
    cut = random.Random(seed).randrange(1, RECORDS)
    single = simulate(
        trace,
        make_scheme(name, context),
        machine=DEFAULT_MACHINE,
        **_kwargs(setup, live),
    )
    state = _capture_at(setup, name, cut, live)
    fresh = make_scheme(name, context)
    resumed = simulate(
        trace,
        fresh,
        machine=DEFAULT_MACHINE,
        resume=state,
        **_kwargs(setup, live),
    )
    assert {k: getattr(resumed, k) for k in SCALARS} == {
        k: getattr(single, k) for k in SCALARS
    }, f"{name}: resumed at {cut}, diverged"
    # The run continued the unpickled scheme, not the one passed in.
    assert resumed.scheme is not fresh
    assert type(resumed.scheme) is type(fresh)
    assert ordered(resumed.scheme) == ordered(single.scheme), name
    return state, resumed


@pytest.mark.parametrize("name", sorted(available_schemes()))
def test_every_registered_scheme_roundtrips(name, setup):
    _roundtrip(setup, name, seed=17)


@pytest.mark.parametrize(
    "name", ["acic", "lru", "dsb", "obm", "random-bypass", "vvc"]
)
@pytest.mark.parametrize("seed", range(3))
def test_randomized_cut_points(name, setup, seed):
    """Stateful-RNG and victim-buffer schemes across several cuts."""
    _roundtrip(setup, name, seed=seed * 31 + 5)


@pytest.mark.parametrize("name", ["lru", "opt", "acic", "ghrp", "harmony"])
def test_entangling_prefetcher_roundtrips(name, setup):
    """The live prefetcher rides in the capture, its trace by reference."""
    trace, context, plans = setup
    _roundtrip(setup, name, seed=23, live=True)
    state = _capture_at(setup, name, 1_100, live=True)
    stream = plans["none"].record_stream(trace, DEFAULT_MACHINE.backend_ipc)
    _, _, parts = timing._restore(
        state, _fresh_parts(setup, name, live=True), trace, stream.cum_instrs
    )
    prefetcher = parts["prefetcher"]
    assert prefetcher.trace is trace
    assert prefetcher._blocks is trace.blocks_list


def test_naive_acic_controller_roundtrips(setup):
    """The readable reference controller honours the same contract."""
    with readable_registry():
        assert isinstance(make_scheme("acic", setup[1]), ACICScheme)
        _roundtrip(setup, "acic", seed=3)


class _Recorder(pickle.Unpickler):
    """Loads a capture, noting every class and reference it names."""

    def __init__(self, blob: bytes, owned: dict) -> None:
        super().__init__(io.BytesIO(blob))
        self.owned = owned
        self.classes = set()
        self.references = set()

    def find_class(self, module, name):
        if module == timing.__name__ and name in ("_trace_ref", "_oracle_ref"):
            owned = name[1:-len("_ref")]
            self.references.add(owned)
            return lambda: self.owned[owned]
        self.classes.add(name)
        return super().find_class(module, name)


#: Oracle-backed schemes, and a run whose live prefetcher holds the trace.
EXTERNAL_CASES = (
    ("opt", False),
    ("opt-bypass", False),
    ("random-bypass", False),
    ("acic-audit", False),
    ("lru", True),
)


def test_oracle_is_external_not_state(setup):
    """A capture references the trace and oracle; a resume resolves them
    to this run's trace and the fresh scheme's own oracle."""
    trace, context, plans = setup
    for name, live in EXTERNAL_CASES:
        fresh = SchemeContext(trace=trace)
        make_scheme(name, fresh)
        assert (fresh._oracle is not None) != live
        state = _capture_at(setup, name, 900, live)
        recorder = _Recorder(
            state["graph"], {"trace": trace, "oracle": context.oracle}
        )
        recorder.load()
        assert not recorder.classes & {"Trace", "NextUseOracle", "ndarray"}
        assert recorder.references == ({"trace"} if live else {"oracle"})

        plan = plans["none" if live else "fdp"]
        stream = plan.record_stream(trace, DEFAULT_MACHINE.backend_ipc)
        _, _, parts = timing._restore(
            state, _fresh_parts(setup, name, live), trace, stream.cum_instrs
        )
        finder = timing._GraphPickler(io.BytesIO(), trace)
        finder.dump(parts)
        assert all(oracle is context.oracle for oracle in finder.oracles)
        assert bool(finder.oracles) != live, name


def test_capture_does_not_grow_with_the_trace(setup):
    """Cut at one record, a run over the first three quarters of the
    trace captures the very same bytes: no trace-sized data rides
    along, the live prefetcher's included."""
    trace, _, _ = setup
    head = trace.slice(0, 3 * RECORDS // 4)
    head_setup = (
        head,
        SchemeContext(trace=head, machine=DEFAULT_MACHINE),
        {
            "fdp": build_plan(head, DEFAULT_MACHINE, "fdp"),
            "none": build_plan(head, DEFAULT_MACHINE, "none"),
        },
    )
    for name, live in (("lru", True), ("acic", False), ("harmony", False)):
        whole = _capture_at(setup, name, 900, live)
        part = _capture_at(head_setup, name, 900, live)
        assert whole["graph"] == part["graph"], name


def test_restore_keeps_flat_acic_aliases(setup):
    """FlatACICScheme caches its children's containers; the unpickled
    scheme's caches must be its own children's, so the hot path sees
    the restored state."""
    _, resumed = _roundtrip(setup, "acic", seed=11)
    scheme = resumed.scheme
    assert scheme._cshr_vt is scheme.cshr._victim_tags
    assert scheme._cshr_stats is scheme.cshr.stats
    assert scheme._ic_stats is scheme.icache.stats
    assert all(
        a is b for a, b in zip(scheme._ic_lines, scheme.icache.line_dicts())
    )
    assert scheme._if_lines is scheme.ifilter._buffer._lines


def test_capture_is_detached_and_keeps_aliasing(setup):
    """Two restores of one capture share nothing; inside each, what was
    one container stays one."""
    trace, _, plans = setup
    stream = plans["fdp"].record_stream(trace, DEFAULT_MACHINE.backend_ipc)
    for name in ("harmony", "ghrp", "ship"):
        state = _capture_at(setup, name, 1_500)
        first, second = (
            timing._restore(
                state, _fresh_parts(setup, name), trace, stream.cum_instrs
            )[2]["scheme"]
            for _ in range(2)
        )
        assert first.icache.line_dicts()[0] is not second.icache.line_dicts()[0]
        assert ordered(first) == ordered(second)
        for scheme in (first, second):
            icache = scheme.icache
            if name == "ship":
                assert icache._on_hit.__self__ is icache.policy
                continue
            lines = icache.line_dicts()
            assert all(a is b for a, b in zip(scheme._lines_by_set, lines))
            if name == "harmony":
                assert any(scheme._hist_by_set), "the run left every sampler empty"
        if name == "harmony":
            assert all(
                a is None or a is not b
                for a, b in zip(first._hist_by_set, second._hist_by_set)
            )


def test_unknown_reference_raises(setup):
    trace, _, plans = setup
    state = _capture_at(setup, "lru", 700)
    parts = _fresh_parts(setup, "lru")
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.persistent_id = lambda obj: "plan" if obj is parts["mshr"] else None
    pickler.dump(parts)
    with pytest.raises(pickle.UnpicklingError, match="unknown persistent id"):
        simulate(
            trace,
            make_scheme("lru", setup[1]),
            machine=DEFAULT_MACHINE,
            plan=plans["fdp"],
            resume={**state, "graph": buffer.getvalue()},
        )


def test_capture_of_another_scheme_class_raises(setup):
    trace, context, plans = setup
    state = _capture_at(setup, "lru", 700)
    with pytest.raises(ValueError, match="resume state holds a FlatLRUScheme"):
        simulate(
            trace,
            make_scheme("acic", context),
            machine=DEFAULT_MACHINE,
            plan=plans["fdp"],
            resume=state,
        )


def test_no_src_class_defines_state_methods():
    """The engine checkpoint is the one state mechanism."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and item.name in ("save_state", "load_state"):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{item.lineno} "
                        f"{node.name}.{item.name}"
                    )
    assert not offenders, offenders
    assert not (SRC / "repro" / "common" / "state.py").exists()
