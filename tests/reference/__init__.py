"""Readable reference twins of the production schemes, for the differential suites.

The scheme registry builds only the fused production implementations.
:func:`readable_registry` swaps the readable ones in for the duration
of a ``with`` block, so ``make_scheme(name, ctx)`` — and everything
built on it, such as ``run_experiment`` — builds the reference of every
registered variant:

* every ``acic*`` variant builds :class:`reference.acic.ACICScheme`;
* ``ghrp``/``harmony`` build ``PlainCacheScheme`` around the readable
  ``GHRPPolicy``/``HawkeyePolicy``;
* ``lru``/``36kb-l1i``/``40kb-l1i``/``opt`` build ``PlainCacheScheme``
  around ``LRUPolicy``/``BeladyOPTPolicy``.

The readable next-use oracle lives in :mod:`reference.oracle`, and the
test-side views that compare simulator state mid-run in
:mod:`reference.state`.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.baselines.plain import PlainCacheScheme
from repro.harness import schemes
from repro.mem.policies import (
    BeladyOPTPolicy,
    GHRPPolicy,
    HawkeyePolicy,
    LRUPolicy,
)
from reference.acic import ACICScheme


def readable_ghrp(config):
    return PlainCacheScheme(config, GHRPPolicy())


def readable_hawkeye(config):
    return PlainCacheScheme(config, HawkeyePolicy(ways=config.ways))


def readable_lru(config):
    return PlainCacheScheme(config, LRUPolicy())


def readable_opt(config, oracle):
    return PlainCacheScheme(config, BeladyOPTPolicy(oracle))


@contextmanager
def readable_registry():
    """Make the registry build the readable twins inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "FlatACICScheme", ACICScheme)
        patch.setattr(schemes, "FlatGHRPScheme", readable_ghrp)
        patch.setattr(schemes, "FlatHawkeyeScheme", readable_hawkeye)
        patch.setattr(schemes, "FlatLRUScheme", readable_lru)
        patch.setattr(schemes, "FlatOPTScheme", readable_opt)
        yield
