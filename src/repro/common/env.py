"""One parser for the numeric ``REPRO_*`` knobs."""

from __future__ import annotations

import math
import os
from typing import Type, Union

Number = Union[int, float]


def env_number(
    name: str,
    default: Number,
    minimum: Number,
    kind: Type[Number] = int,
    *,
    exclusive: bool = False,
) -> Number:
    """``kind(os.environ[name])``, or ``default`` when unset or blank.

    Rejects text, non-finite values and values below ``minimum`` (or
    equal to it, with ``exclusive``) with a ``ValueError`` that names
    the variable.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if value < minimum or (exclusive and value == minimum):
        bound = ">" if exclusive else ">="
        raise ValueError(f"{name} must be {bound} {minimum}, got {raw!r}")
    return value
