"""Seeded, serializable strategies over the workload-generator knobs.

A *strategy* knows how to draw one knob value from a seeded RNG, how to
enumerate strictly-smaller *shrink candidates* for a drawn value, and
how to describe itself with a repr that is stable across processes (the
repr participates in the space fingerprint, so two processes always
agree on what space a spec came from).

A :class:`ProfileSpace` is an ordered, named collection of knob
strategies plus a builder that turns a drawn value assignment into a
:class:`~repro.workloads.profiles.WorkloadProfile`.  Draws consume the
RNG in fixed knob order, so ``space.draw(random.Random(seed))`` is a
pure function of the seed.  The drawn assignment is captured as a
:class:`ProfileSpec` — immutable, JSON-serializable, content-
fingerprinted — which is the unit the search scores (its fingerprint
names the result-cache entries), the shrinker rewrites and the
scenario registry persists.

Floats are *quantized* onto explicit grids: every representable value
is ``lo + k*step`` for an integer ``k``, so specs serialize to exact
JSON, fingerprints are reproducible, and shrinking is integer search
over ``k`` (guaranteed to terminate).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.workloads.generator import WalkParams
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.program import ProgramShape

#: Workload-name prefix for search-discovered profiles; the fingerprint
#: after it keys the trace and result caches, so a spec scored once is
#: warm for every later process that rediscovers it.
SEARCH_WORKLOAD_PREFIX = "search-"


def _towards(value: int, target: int) -> Iterator[int]:
    """Strictly-between candidates from ``target`` towards ``value``.

    Ordered biggest-jump-first (the full jump to ``target``, then the
    midpoint, then the single step), hypothesis-style: repeated greedy
    passes converge like binary search with a linear tail.  Every
    candidate is strictly closer to ``target`` than ``value`` is, which
    is what makes the shrinker's accept loop well-founded.
    """
    if value == target:
        return
    seen = set()
    step = 1 if value > target else -1
    for candidate in (target, target + (value - target) // 2, value - step):
        if candidate == value or candidate in seen:
            continue
        if abs(candidate - target) >= abs(value - target):
            continue
        seen.add(candidate)
        yield candidate


class Strategy:
    """One knob: draw, validate, shrink, and a process-stable repr."""

    def draw(self, rng: random.Random):
        raise NotImplementedError

    def validate(self, value) -> None:
        """Raise ValueError when ``value`` is outside this strategy."""
        raise NotImplementedError

    def shrink_candidates(self, value) -> Iterator:
        """Strictly-smaller candidates, biggest simplification first."""
        raise NotImplementedError

    def canonical(self, value):
        """The JSON-stable form of ``value`` (tuples become lists)."""
        return value

    def from_canonical(self, value):
        """Inverse of :meth:`canonical` (lists back to tuples)."""
        return value

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass(frozen=True)
class Integers(Strategy):
    """An integer in ``[lo, hi]``; shrinks toward ``target`` (default lo)."""

    lo: int
    hi: int
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"bad integer range [{self.lo}, {self.hi}]")
        object.__setattr__(
            self, "target", self.lo if self.target is None else self.target
        )
        if not self.lo <= self.target <= self.hi:
            raise ValueError(f"target {self.target} outside [{self.lo}, {self.hi}]")

    def draw(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)

    def validate(self, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{value!r} is not an integer")
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{value} outside [{self.lo}, {self.hi}]")

    def shrink_candidates(self, value: int) -> Iterator[int]:
        yield from _towards(value, self.target)

    def describe(self) -> str:
        return f"integers({self.lo}, {self.hi}, target={self.target})"


@dataclass(frozen=True)
class Quantized(Strategy):
    """A float on the grid ``lo + k*step``; shrinks toward ``target``.

    Values are always rounded to 9 decimals, so they serialize to exact
    JSON decimals and compare equal across processes.
    """

    lo: float
    hi: float
    step: float
    target: Optional[float] = None

    def __post_init__(self) -> None:
        if self.hi < self.lo or self.step <= 0:
            raise ValueError(
                f"bad quantized range [{self.lo}, {self.hi}] step {self.step}"
            )
        object.__setattr__(
            self, "target", self.lo if self.target is None else self.target
        )
        self.validate(self.target)

    def _steps(self) -> int:
        return int(round((self.hi - self.lo) / self.step))

    def _value(self, k: int) -> float:
        return round(self.lo + k * self.step, 9)

    def _index(self, value: float) -> int:
        return int(round((value - self.lo) / self.step))

    def draw(self, rng: random.Random) -> float:
        return self._value(rng.randint(0, self._steps()))

    def validate(self, value) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        if not self.lo <= value <= self.hi + 1e-12:
            raise ValueError(f"{value} outside [{self.lo}, {self.hi}]")
        if abs(self._value(self._index(value)) - value) > 1e-9:
            raise ValueError(f"{value} is off the step-{self.step} grid")

    def shrink_candidates(self, value: float) -> Iterator[float]:
        for k in _towards(self._index(value), self._index(self.target)):
            yield self._value(k)

    def canonical(self, value: float) -> float:
        return round(float(value), 9)

    def describe(self) -> str:
        return (
            f"quantized({self.lo}, {self.hi}, step={self.step}, "
            f"target={self.target})"
        )


@dataclass(frozen=True)
class IntPair(Strategy):
    """An ordered pair ``(a, b)`` with ``lo <= a <= b <= hi``.

    Used for the generator's size/phase ranges.  Shrinks the width
    first (``b`` down toward ``a``), then both ends toward ``target``.
    """

    lo: int
    hi: int
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"bad pair range [{self.lo}, {self.hi}]")
        object.__setattr__(
            self, "target", self.lo if self.target is None else self.target
        )
        if not self.lo <= self.target <= self.hi:
            raise ValueError(f"target {self.target} outside [{self.lo}, {self.hi}]")

    def draw(self, rng: random.Random) -> Tuple[int, int]:
        a = rng.randint(self.lo, self.hi)
        return a, rng.randint(a, self.hi)

    def validate(self, value) -> None:
        if (
            not isinstance(value, tuple)
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
        ):
            raise ValueError(f"{value!r} is not an int pair")
        a, b = value
        if not self.lo <= a <= b <= self.hi:
            raise ValueError(f"({a}, {b}) violates {self.lo} <= a <= b <= {self.hi}")

    def shrink_candidates(self, value: Tuple[int, int]) -> Iterator[Tuple[int, int]]:
        a, b = value
        for candidate in _towards(b, a):  # narrow the range first
            yield a, candidate
        for candidate in _towards(a, self.target):  # then lower the floor
            yield candidate, b

    def canonical(self, value: Tuple[int, int]) -> List[int]:
        return [int(value[0]), int(value[1])]

    def from_canonical(self, value) -> Tuple[int, int]:
        return int(value[0]), int(value[1])

    def describe(self) -> str:
        return f"int_pair({self.lo}, {self.hi}, target={self.target})"


@dataclass(frozen=True)
class ProfileSpec:
    """One drawn knob assignment: immutable, fingerprinted, serializable.

    ``values`` is stored as a tuple of ``(knob, canonical value)`` pairs
    in the owning space's knob order, so equality, hashing, repr and the
    fingerprint are all order-stable regardless of how the spec was
    constructed.
    """

    space: str
    values: Tuple[Tuple[str, object], ...]

    def as_dict(self) -> Dict[str, object]:
        space = get_space(self.space)
        return {
            knob: space.knobs[knob].from_canonical(value)
            for knob, value in self.values
        }

    @property
    def fingerprint(self) -> str:
        """Content hash over (space identity, values) — 12 hex chars.

        The space *description* (every strategy's repr) participates,
        so redefining a space's ranges changes every fingerprint drawn
        from it: old cache entries can never alias new specs.
        """
        space = get_space(self.space)
        payload = json.dumps(
            {"space": space.describe(), "values": list(self.values)},
            sort_keys=False,
            separators=(",", ":"),
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    @property
    def workload_name(self) -> str:
        return f"{SEARCH_WORKLOAD_PREFIX}{self.fingerprint}"

    def replace(self, **changes) -> "ProfileSpec":
        """A new validated spec with ``changes`` applied."""
        values = self.as_dict()
        for knob, value in changes.items():
            if knob not in values:
                raise KeyError(f"unknown knob {knob!r} in space {self.space!r}")
            values[knob] = value
        return get_space(self.space).spec(values)

    def build(self) -> WorkloadProfile:
        """The tracked workload profile this spec describes."""
        return get_space(self.space).build(self)

    def to_jsonable(self) -> Dict[str, object]:
        return {"space": self.space, "values": dict(self.values)}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "ProfileSpec":
        space = get_space(str(payload["space"]))
        values = payload["values"]
        if not isinstance(values, Mapping):
            raise ValueError(f"spec values must be a mapping, got {values!r}")
        return space.spec(
            {
                knob: space.knobs[knob].from_canonical(value)
                for knob, value in values.items()
            }
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{knob}={value!r}" for knob, value in self.values)
        return f"ProfileSpec({self.space}: {inner})"


class ProfileSpace:
    """A named, ordered strategy space with a profile builder."""

    def __init__(
        self,
        name: str,
        knobs: Mapping[str, Strategy],
        builder: Callable[[Dict[str, object]], WorkloadProfile],
    ) -> None:
        self.name = name
        self.knobs: Dict[str, Strategy] = dict(knobs)
        self._builder = builder

    # -- draws and validation -------------------------------------------------

    def draw(self, rng: random.Random) -> ProfileSpec:
        """Draw one spec; consumes the RNG in fixed knob order."""
        return self.spec(
            {knob: strategy.draw(rng) for knob, strategy in self.knobs.items()}
        )

    def sample(self, seed: int, index: int) -> ProfileSpec:
        """Sample ``index`` of the deterministic sequence for ``seed``.

        Each sample owns an independent RNG derived from (seed, index),
        so sample *i* is the same spec no matter how many earlier
        samples a resumed run finds in the result cache — the property
        that makes a killed search resumable without drift.
        """
        return self.draw(random.Random((seed << 24) ^ (index * 2654435761)))

    def spec(self, values: Mapping[str, object]) -> ProfileSpec:
        """Build a validated, canonically-ordered spec from ``values``."""
        unknown = sorted(set(values) - set(self.knobs))
        if unknown:
            raise KeyError(f"unknown knobs for space {self.name!r}: {unknown}")
        missing = sorted(set(self.knobs) - set(values))
        if missing:
            raise ValueError(f"missing knobs for space {self.name!r}: {missing}")
        ordered = []
        for knob, strategy in self.knobs.items():
            value = values[knob]
            strategy.validate(value)
            ordered.append((knob, strategy.canonical(value)))
        return ProfileSpec(space=self.name, values=tuple(ordered))

    def build(self, spec: ProfileSpec) -> WorkloadProfile:
        if spec.space != self.name:
            raise ValueError(
                f"spec belongs to space {spec.space!r}, not {self.name!r}"
            )
        profile = self._builder(spec.as_dict())
        return dc_replace(profile, name=spec.workload_name)

    def describe(self) -> str:
        """Process-stable repr of the whole space (fingerprint input)."""
        inner = "; ".join(
            f"{knob}={strategy.describe()}" for knob, strategy in self.knobs.items()
        )
        return f"ProfileSpace({self.name}: {inner})"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


# -- the Figure 11 space ------------------------------------------------------
#
# Ranges bracket the hand-calibrated Table III profiles (so the search
# can rediscover them) and extend along the axes the paper names as the
# datacenter-trace structure ACIC exploits: deep call chains
# (chain_call_prob x max_call_depth x full_block_prob), interpreter
# dispatch (dispatch_fanout over the hot pool through one indirect
# site), RPC interleaving (rpc_interleave_prob), and the cold junk
# stream admission control exists to filter (cold_* knobs).

_FIG11_KNOBS: Dict[str, Strategy] = {
    # static structure (ProgramShape)
    "hot_functions": Integers(4, 64, target=4),
    "hot_size": IntPair(2, 10, target=2),
    "groups": Integers(1, 10, target=1),
    "handlers_per_group": Integers(4, 28, target=4),
    "handler_size": IntPair(3, 24, target=3),
    "shared_handlers": Integers(0, 16, target=0),
    "cold_functions": Integers(0, 2000, target=0),
    "cold_size": IntPair(6, 64, target=6),
    "call_prob": Quantized(0.0, 0.5, 0.02, target=0.0),
    "hot_call_bias": Quantized(0.0, 0.8, 0.05, target=0.0),
    "hot_zipf": Quantized(1.0, 3.0, 0.1, target=1.0),
    "loop_prob": Quantized(0.0, 0.2, 0.02, target=0.0),
    "loop_mean_iters": Quantized(1.0, 12.0, 0.5, target=1.0),
    "chain_call_prob": Quantized(0.0, 1.0, 0.05, target=0.0),
    # dynamic behaviour (WalkParams)
    "self_transition": Quantized(0.0, 0.9, 0.05, target=0.0),
    "phases": IntPair(1, 18, target=1),
    "member_zipf": Quantized(1.0, 3.0, 0.1, target=1.0),
    "cold_phase_prob": Quantized(0.0, 0.7, 0.02, target=0.0),
    "regroup_prob": Quantized(0.0, 0.9, 0.05, target=0.0),
    "regroup_mean": Quantized(1.0, 6.0, 0.5, target=1.0),
    "full_block_prob": Quantized(0.1, 0.9, 0.05, target=0.1),
    "max_call_depth": Integers(2, 48, target=2),
    "dispatch_fanout": Integers(0, 8, target=0),
    "rpc_interleave_prob": Quantized(0.0, 0.6, 0.05, target=0.0),
    # the (program, walk) RNG seed is part of the searched space: two
    # identical knob assignments with different seeds are different
    # workloads.  It shrinks toward 0 like any other knob — a seed
    # change only survives if the shrunk spec still reproduces the
    # score direction, exactly hypothesis's treatment of randomness.
    "seed": Integers(0, 1 << 16),
}


def _build_fig11(values: Dict[str, object]) -> WorkloadProfile:
    full = float(values["full_block_prob"])
    shape = ProgramShape(
        hot_functions=int(values["hot_functions"]),
        hot_size=values["hot_size"],
        groups=int(values["groups"]),
        handlers_per_group=int(values["handlers_per_group"]),
        roots_per_group=min(2, int(values["handlers_per_group"])),
        handler_size=values["handler_size"],
        shared_handlers=int(values["shared_handlers"]),
        cold_functions=int(values["cold_functions"]),
        cold_size=values["cold_size"],
        call_prob=float(values["call_prob"]),
        hot_call_bias=float(values["hot_call_bias"]),
        hot_zipf=float(values["hot_zipf"]),
        loop_prob=float(values["loop_prob"]),
        loop_mean_iters=float(values["loop_mean_iters"]),
        chain_call_prob=float(values["chain_call_prob"]),
    )
    walk = WalkParams(
        request_self_transition=float(values["self_transition"]),
        phases=values["phases"],
        member_zipf=float(values["member_zipf"]),
        cold_phase_prob=float(values["cold_phase_prob"]),
        regroup_prob=float(values["regroup_prob"]),
        regroup_mean=float(values["regroup_mean"]),
        full_block_prob=round(full, 9),
        # keep the static-hash execution-length split consistent: the
        # two-group share scales into whatever mass full blocks leave.
        two_group_prob=round(0.5 * (1.0 - full), 9),
        max_call_depth=int(values["max_call_depth"]),
        dispatch_fanout=int(values["dispatch_fanout"]),
        rpc_interleave_prob=float(values["rpc_interleave_prob"]),
    )
    return WorkloadProfile(
        name="search-unbound",  # ProfileSpace.build rebinds to the fingerprint
        suite="search",
        description="property-based search discovery (fig11 space)",
        paper_mpki=0.0,
        shape=shape,
        walk=walk,
        seed=int(values["seed"]),
    )


FIG11_SPACE = ProfileSpace("fig11-v1", _FIG11_KNOBS, _build_fig11)

#: All registered spaces, by name; ``ProfileSpec.from_jsonable`` and the
#: scenario registry resolve spaces through this table.
SPACES: Dict[str, ProfileSpace] = {FIG11_SPACE.name: FIG11_SPACE}


def get_space(name: str) -> ProfileSpace:
    try:
        return SPACES[name]
    except KeyError:
        known = ", ".join(sorted(SPACES))
        raise KeyError(f"unknown strategy space {name!r}; known: {known}") from None
