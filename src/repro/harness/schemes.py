"""Scheme registry: every Table IV row (and ablation) by name.

A *scheme factory* takes a :class:`SchemeContext` (trace + lazily-built
oracle + machine parameters) and returns a fresh scheme object
implementing the L1I protocol.  The registry is the single source of
truth for scheme construction; benches, tests and examples all build
schemes through :func:`make_scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.baselines.bypass import (
    AccessCountBypassScheme,
    AlwaysInsertScheme,
    DSBScheme,
    OBMScheme,
    OPTBypassScheme,
    RandomBypassScheme,
)
from repro.baselines.plain import PlainCacheScheme
from repro.baselines.victim import VictimCacheScheme, VVCScheme
from repro.core.flat import FlatACICScheme
from repro.core.predictor import (
    BimodalAdmissionPredictor,
    GlobalHistoryAdmissionPredictor,
    TwoLevelAdmissionPredictor,
)
from repro.mem.cache import CacheConfig
from repro.mem.oracle import NextUseOracle
from repro.mem.policies import (
    FlatGHRPScheme,
    FlatHawkeyeScheme,
    FlatLRUScheme,
    FlatOPTScheme,
    SHiPPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
)
from repro.uarch.params import (
    BASELINE_L1I,
    LARGER_L1I_36K,
    LARGER_L1I_40K,
    DEFAULT_MACHINE,
    MachineParams,
)
from repro.workloads.trace import Trace


@dataclass
class SchemeContext:
    """Everything a scheme factory may need.  The trace holds its plans
    and pre-pass, so they live as long as the context, as the oracle."""

    trace: Trace
    machine: MachineParams = field(default_factory=lambda: DEFAULT_MACHINE)
    l1i_config: CacheConfig = BASELINE_L1I
    _oracle: Optional[NextUseOracle] = field(default=None, repr=False)

    @property
    def oracle(self) -> NextUseOracle:
        """Next-use oracle over the trace, built on first use."""
        if self._oracle is None:
            self._oracle = NextUseOracle(self.trace.blocks)
        return self._oracle


SchemeFactory = Callable[[SchemeContext], object]

_REGISTRY: Dict[str, SchemeFactory] = {}
_NEEDS_ORACLE: Dict[str, bool] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(name: str, description: str, needs_oracle: bool = False):
    """Decorator adding a factory to the registry."""

    def wrap(factory: SchemeFactory) -> SchemeFactory:
        if name in _REGISTRY:
            raise ValueError(f"duplicate scheme name {name!r}")
        _REGISTRY[name] = factory
        _NEEDS_ORACLE[name] = needs_oracle
        _DESCRIPTIONS[name] = description
        return factory

    return wrap


def make_scheme(name: str, context: SchemeContext):
    """Build a fresh scheme instance by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scheme {name!r}; known: {known}") from None
    scheme = factory(context)
    scheme.name = name  # registry name wins for reporting
    return scheme


def available_schemes() -> Dict[str, str]:
    """Mapping of scheme name -> one-line description."""
    return dict(_DESCRIPTIONS)


def scheme_needs_oracle(name: str) -> bool:
    return _NEEDS_ORACLE.get(name, False)


# -- plain replacement policies ------------------------------------------------

@register("lru", "baseline 32KB/8-way LRU i-cache")
def _lru(ctx: SchemeContext):
    return FlatLRUScheme(ctx.l1i_config)


@register("plru", "tree pseudo-LRU i-cache (extra ablation)")
def _plru(ctx: SchemeContext):
    return PlainCacheScheme(ctx.l1i_config, TreePLRUPolicy(ctx.l1i_config.ways))


@register("srrip", "SRRIP replacement (2-bit RRPV)")
def _srrip(ctx: SchemeContext):
    return PlainCacheScheme(ctx.l1i_config, SRRIPPolicy())


@register("ship", "SHiP signature-based hit predictor over SRRIP")
def _ship(ctx: SchemeContext):
    return PlainCacheScheme(ctx.l1i_config, SHiPPolicy())


@register("harmony", "Hawkeye/Harmony OPT-learning replacement")
def _harmony(ctx: SchemeContext):
    return FlatHawkeyeScheme(ctx.l1i_config)


@register("ghrp", "GHRP dead-block-predicting replacement")
def _ghrp(ctx: SchemeContext):
    return FlatGHRPScheme(ctx.l1i_config)


@register("opt", "Belady OPT oracle replacement", needs_oracle=True)
def _opt(ctx: SchemeContext):
    return FlatOPTScheme(ctx.l1i_config, ctx.oracle)


@register("36kb-l1i", "36KB 9-way LRU i-cache (more SRAM instead)")
def _l1i_36k(ctx: SchemeContext):
    return FlatLRUScheme(LARGER_L1I_36K)


@register("40kb-l1i", "40KB 10-way LRU i-cache (Table IV row)")
def _l1i_40k(ctx: SchemeContext):
    return FlatLRUScheme(LARGER_L1I_40K)


# -- victim caches --------------------------------------------------------------

@register("vc3k", "3KB fully-associative victim cache")
def _vc3k(ctx: SchemeContext):
    return VictimCacheScheme(ctx.l1i_config)


@register("vvc", "virtual victim cache in predicted-dead lines")
def _vvc(ctx: SchemeContext):
    return VVCScheme(ctx.l1i_config)


# -- bypassing policies -----------------------------------------------------------

@register("dsb", "dueling segmented LRU with adaptive bypass")
def _dsb(ctx: SchemeContext):
    return DSBScheme(ctx.l1i_config)


@register("dsb+ifilter", "DSB applied to i-Filter victims")
def _dsb_ifilter(ctx: SchemeContext):
    return DSBScheme(ctx.l1i_config, with_ifilter=True)


@register("obm", "optimal bypass monitor")
def _obm(ctx: SchemeContext):
    return OBMScheme(ctx.l1i_config)


@register("ifilter-always", "i-Filter, victims always inserted (Fig 3a)")
def _ifilter_always(ctx: SchemeContext):
    return AlwaysInsertScheme(ctx.l1i_config)


@register("access-count", "i-Filter + access-count comparison (Fig 3a)")
def _access_count(ctx: SchemeContext):
    return AccessCountBypassScheme(ctx.l1i_config)


@register("opt-bypass", "i-Filter + oracle admission", needs_oracle=True)
def _opt_bypass(ctx: SchemeContext):
    return OPTBypassScheme(ctx.l1i_config, ctx.oracle)


@register("random-bypass", "i-Filter + 60%-accurate random admission",
          needs_oracle=True)
def _random_bypass(ctx: SchemeContext):
    return RandomBypassScheme(ctx.l1i_config, ctx.oracle, accuracy=0.6)


# -- ACIC and its ablations ---------------------------------------------------------

@register("acic", "ACIC: i-Filter + CSHR + two-level admission predictor")
def _acic(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config)


@register("acic-audit", "ACIC with oracle decision auditing (Fig 12a/13)",
          needs_oracle=True)
def _acic_audit(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config, audit_oracle=ctx.oracle)


@register("acic-instant", "ACIC with instant predictor updates (Fig 14)")
def _acic_instant(ctx: SchemeContext):
    return FlatACICScheme(
        ctx.l1i_config,
        predictor=TwoLevelAdmissionPredictor(update_mode="instant"),
    )


@register("acic-nofilter", "ACIC admission on raw misses, no i-Filter (Fig 17)")
def _acic_nofilter(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config, use_ifilter=False)


@register("acic-global", "ACIC with a global-history predictor (Fig 17)")
def _acic_global(ctx: SchemeContext):
    return FlatACICScheme(
        ctx.l1i_config, predictor=GlobalHistoryAdmissionPredictor()
    )


@register("acic-bimodal", "ACIC with a bimodal predictor (Fig 17)")
def _acic_bimodal(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config, predictor=BimodalAdmissionPredictor())


def _acic_variant(**kwargs) -> SchemeFactory:
    def factory(ctx: SchemeContext):
        predictor_kwargs = {
            k: v
            for k, v in kwargs.items()
            if k in ("hrt_entries", "history_bits", "counter_bits", "tag_bits")
        }
        scheme_kwargs = {k: v for k, v in kwargs.items() if k == "ifilter_slots"}
        predictor = (
            TwoLevelAdmissionPredictor(**predictor_kwargs)
            if predictor_kwargs
            else None
        )
        if "tag_bits" in kwargs:
            scheme_kwargs["tag_bits"] = kwargs["tag_bits"]
        return FlatACICScheme(
            ctx.l1i_config, predictor=predictor, **scheme_kwargs
        )

    return factory


@register("acic-bod-none", "ACIC, unresolved CSHR entries train nothing")
def _acic_bod_none(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config, unresolved_policy="none")


@register("acic-bod-contender", "ACIC, benefit of the doubt to the contender")
def _acic_bod_contender(ctx: SchemeContext):
    return FlatACICScheme(ctx.l1i_config, unresolved_policy="contender")


def _no_training(*args, **kwargs) -> None:
    """A predictor ``train`` that learns nothing (module-level: picklable)."""


@register("acic-mru-cshr-off", "ACIC without CSHR training (static predictor)")
def _acic_untrained(ctx: SchemeContext):
    scheme = FlatACICScheme(ctx.l1i_config, unresolved_policy="none")
    scheme.predictor.train = _no_training  # freeze learning
    return scheme


# Figure 15 sensitivity points.
register("acic-hrt512", "ACIC, 512-entry HRT")(_acic_variant(hrt_entries=512))
register("acic-hrt2k", "ACIC, 2048-entry HRT")(_acic_variant(hrt_entries=2048))
register("acic-hist8", "ACIC, 8-bit history")(
    _acic_variant(history_bits=8)
)
register("acic-hist10", "ACIC, 10-bit history")(
    _acic_variant(history_bits=10)
)
register("acic-ctr2", "ACIC, 2-bit PT counters")(
    _acic_variant(counter_bits=2)
)
register("acic-ctr8", "ACIC, 8-bit PT counters")(
    _acic_variant(counter_bits=8)
)
register("acic-if8", "ACIC, 8-slot i-Filter")(_acic_variant(ifilter_slots=8))
register("acic-if32", "ACIC, 32-slot i-Filter")(_acic_variant(ifilter_slots=32))
register("acic-tag7", "ACIC, 7-bit CSHR tags")(_acic_variant(tag_bits=7))
register("acic-tag27", "ACIC, 27-bit CSHR tags")(_acic_variant(tag_bits=27))
