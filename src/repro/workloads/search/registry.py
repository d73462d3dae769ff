"""The scenario registry: found profiles as first-class tracked workloads.

Every profile the search discovers (and shrinks) is persisted as one
JSON file under ``profiles/found/`` — committed to the repository, so a
discovery becomes a *permanent regression scenario*:

* :func:`repro.workloads.profiles.get_workload` resolves registry names
  (``search-<fingerprint>``) exactly like the hand-calibrated profiles,
  so benches, sweeps and the service can simulate them;
* the file records the score the profile reproduced at discovery time
  (share of OPT's MPKI reduction recovered by ACIC, at a given record
  count), so a regression test can re-simulate and compare;
* ``RATCHET.json`` records the best shares achieved so far — the
  Figure 11 ratchet (``benchmarks/test_fig11_mpki.py``) asserts against
  it, so search progress can never silently regress.

Override the directory with ``REPRO_FOUND_PROFILES`` (tests isolate
through it).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.common.durable import write_atomic
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.search.strategies import ProfileSpec

#: Bump when the found-profile JSON layout changes.
REGISTRY_FORMAT = 1

RATCHET_NAME = "RATCHET.json"


def _json_bytes(payload: Dict[str, object]) -> bytes:
    """The committed file format: indented, key-sorted, newline-ended."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def found_profiles_dir() -> Path:
    """Directory of committed found profiles (REPRO_FOUND_PROFILES)."""
    env = os.environ.get("REPRO_FOUND_PROFILES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[4] / "profiles" / "found"


def save_found_profile(
    spec: ProfileSpec,
    score: Dict[str, object],
    provenance: Optional[Dict[str, object]] = None,
    directory: Optional[Path] = None,
) -> Path:
    """Persist ``spec`` (+ its reproduced score) as a tracked scenario.

    Returns the written path; the file name is the workload name, so
    ``get_workload(path.stem)`` loads it back.  Write-then-rename keeps
    concurrent readers from seeing a partial file.
    """
    directory = Path(directory) if directory else found_profiles_dir()
    payload = {
        "format": REGISTRY_FORMAT,
        "name": spec.workload_name,
        "spec": spec.to_jsonable(),
        "score": dict(score),
        "provenance": dict(provenance or {}),
    }
    path = directory / f"{spec.workload_name}.json"
    write_atomic(path, _json_bytes(payload))
    return path


def load_found_entry(path: Path) -> Tuple[ProfileSpec, Dict[str, object]]:
    """(spec, full payload) for one registry file; raises on mismatch.

    The stored name must equal the spec's recomputed workload name —
    an edited spec under a stale filename would otherwise alias cache
    entries of the original.
    """
    payload = json.loads(Path(path).read_text())
    if int(payload.get("format", -1)) != REGISTRY_FORMAT:
        raise ValueError(
            f"found-profile {path} has format {payload.get('format')!r}, "
            f"expected {REGISTRY_FORMAT}"
        )
    spec = ProfileSpec.from_jsonable(payload["spec"])
    if payload.get("name") != spec.workload_name:
        raise ValueError(
            f"found-profile {path} names {payload.get('name')!r} but its "
            f"spec fingerprints to {spec.workload_name!r}"
        )
    return spec, payload


def load_found_profiles(
    directory: Optional[Path] = None,
) -> Dict[str, WorkloadProfile]:
    """All committed found profiles, by workload name.

    A corrupt file raises rather than being skipped: the registry is
    committed content, and silently dropping a regression scenario is
    exactly the failure mode the registry exists to prevent.
    """
    directory = Path(directory) if directory else found_profiles_dir()
    profiles: Dict[str, WorkloadProfile] = {}
    if not directory.is_dir():
        return profiles
    for path in sorted(directory.glob("*.json")):
        if path.name == RATCHET_NAME:
            continue
        spec, _ = load_found_entry(path)
        profiles[spec.workload_name] = spec.build()
    return profiles


# -- the ratchet --------------------------------------------------------------


def ratchet_path(directory: Optional[Path] = None) -> Path:
    directory = Path(directory) if directory else found_profiles_dir()
    return directory / RATCHET_NAME


def read_ratchet(directory: Optional[Path] = None) -> Dict[str, object]:
    """The committed ratchet, or an empty dict when none exists yet."""
    path = ratchet_path(directory)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def write_ratchet(
    ratchet: Dict[str, object], directory: Optional[Path] = None
) -> Path:
    """Commit a new ratchet state (write-then-rename)."""
    path = ratchet_path(directory)
    write_atomic(path, _json_bytes(ratchet))
    return path
