"""Every numeric ``REPRO_*`` knob goes through one parser with one contract.

Unset or blank means the default; a valid value parses; a value below
the knob's bound, text, ``nan`` and ``inf`` all raise a ``ValueError``
that names the variable.  (``inf`` once passed validation and then
overflowed ``concurrent.futures.wait`` mid-sweep; ``nan`` silently
disabled the sweep deadline.)
"""

from __future__ import annotations

import pytest

from repro.harness import runner, shards
from repro.harness.experiment import scaled_records
from repro.service import server
from repro.workloads.profiles import DEFAULT_RECORDS

#: name -> (accessor, default, valid raw value, its parse, below bound)
KNOBS = {
    "REPRO_JOBS": (runner._default_jobs, 1, "3", 3, "0"),
    "REPRO_SWEEP_TIMEOUT": (runner._sweep_timeout, 0.0, "2.5", 2.5, "-1"),
    "REPRO_SWEEP_RETRIES": (runner._sweep_retries, 3, "5", 5, "-1"),
    "REPRO_SHARD_WINDOW": (shards.shard_window, 0, "2500", 2500, "-1"),
    "REPRO_SERVICE_CONCURRENCY": (server._service_concurrency, 2, "3", 3, "0"),
    "REPRO_SCALE": (
        scaled_records,
        DEFAULT_RECORDS,
        "0.5",
        int(DEFAULT_RECORDS * 0.5),
        "0",
    ),
}


@pytest.mark.parametrize(
    "case", ["empty", "valid", "below", "text", "nan", "inf"]
)
@pytest.mark.parametrize("name", sorted(KNOBS))
def test_numeric_knob(name, case, monkeypatch):
    read, default, valid, parsed, below = KNOBS[name]
    raw = {
        "empty": "",
        "valid": valid,
        "below": below,
        "text": "lots",
        "nan": "nan",
        "inf": "inf",
    }[case]
    monkeypatch.setenv(name, raw)
    if case == "empty":
        assert read() == default
        monkeypatch.delenv(name)
        assert read() == default
    elif case == "valid":
        assert read() == parsed
    else:
        with pytest.raises(ValueError, match=name):
            read()
