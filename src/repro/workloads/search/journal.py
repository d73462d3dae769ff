"""Fsync'd JSON-lines journal making a search resumable after a kill.

An :class:`~repro.common.durable.AppendLog`, like the sweep journals
(:mod:`repro.harness.runner`): one line per scored spec, fsynced at
write time so entries survive a SIGKILLed search process; replay skips
a torn final line and foreign junk (worst case: one spec is re-scored —
and even that is usually warm in the Runner's fingerprinted result
cache).

Unlike sweep journals the file is *kept* after a successful search:
it doubles as the search log, and a re-run with a larger ``--budget``
resumes on top of it instead of re-scoring the shared prefix.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

from repro.common.durable import AppendLog


class SearchJournal(AppendLog):
    """Fsync-per-line journal of scored specs, keyed by fingerprint."""

    def record(self, entry: Dict[str, object]) -> None:
        """Append one scored-spec entry; must contain ``fingerprint``."""
        if "fingerprint" not in entry:
            raise ValueError("journal entries must carry a fingerprint")
        self.append(entry)

    def replay(self) -> Dict[str, Dict[str, object]]:
        """{fingerprint: entry}; later lines win on duplicates."""
        return {
            str(entry["fingerprint"]): entry
            for entry in self.entries()
            if "fingerprint" in entry
        }


def default_journal_path(space: str, seed: int, records: int) -> Path:
    """Per-(space, seed, records) journal beside the result caches.

    Distinct search configurations never share a journal, so replaying
    one can never inject scores measured under different settings.
    Override the directory with ``REPRO_SEARCH_DIR``.
    """
    env = os.environ.get("REPRO_SEARCH_DIR")
    base = (
        Path(env)
        if env
        else Path(__file__).resolve().parents[4] / ".cache" / "search"
    )
    return base / f"{space}.s{seed}.r{records}.journal"
