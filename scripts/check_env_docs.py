#!/usr/bin/env python
"""Docs-freshness gate: every ``REPRO_*`` env var read in ``src/`` must
appear in README.md's environment-variable reference table.

Usage::

    python scripts/check_env_docs.py            # gate (CI runs this)
    python scripts/check_env_docs.py --list     # print the mapping

Stdlib-only.  The source scan is textual (``REPRO_[A-Z0-9_]+`` tokens
in ``src/**/*.py``), so a variable mentioned only in a docstring also
counts as "read" — that is deliberate: if the source talks about a
knob, the README reference should too.  On the README side only
*reference-table rows* count (markdown table lines whose first cell
names a backticked ``REPRO_*`` variable) — a mention in prose does not
satisfy the gate, so deleting a table row fails CI even while the
variable is still discussed elsewhere.  Table rows naming a variable
that no longer appears anywhere in ``src/`` fail the gate as well, so
stale rows can't linger after a knob is removed.

The gate also fails when ``tests/``, ``benchmarks/``, ``scripts/`` or
``examples/`` name a ``REPRO_*`` variable that ``src/`` no longer
reads: a leftover ``monkeypatch.setenv`` of a deleted switch sets
nothing, so a differential test built on it would silently compare an
implementation with itself and still pass.

It is also a ratchet: the gate fails when ``src/`` names more distinct
``REPRO_*`` variables than :data:`CEILING`.  ``REPRO_*`` names are for
real operator knobs only, so their count may only go down: a change
that retires a name lowers the ceiling with it.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
#: A reference-table row: first cell is a backticked `REPRO_*` variable
#: (possibly with =value inside the backticks).
TABLE_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)[^`]*`\s*\|", re.MULTILINE)


#: Most distinct ``REPRO_*`` names ``src/`` may name; lower it when one goes.
CEILING = 13

#: Trees whose ``REPRO_*`` mentions must name a variable src/ reads.
CONSUMER_DIRS = ("tests", "benchmarks", "scripts", "examples")


def vars_in_source(*dirs: str) -> dict[str, list[str]]:
    """{variable: [files mentioning it]} over ``<dir>/**/*.py`` (default src)."""
    found: dict[str, list[str]] = defaultdict(list)
    for top in dirs or ("src",):
        for path in sorted((REPO / top).rglob("*.py")):
            rel = str(path.relative_to(REPO))
            for name in set(ENV_RE.findall(path.read_text())):
                found[name].append(rel)
    return dict(found)


def vars_in_readme() -> set[str]:
    """Variables with a row in README.md's reference table.

    Only table rows whose first cell is a backticked ``REPRO_*``
    variable count; prose mentions do not satisfy the gate.
    """
    return set(TABLE_ROW_RE.findall((REPO / "README.md").read_text()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="print variable -> files and exit"
    )
    args = parser.parse_args(argv)

    source = vars_in_source()
    documented = vars_in_readme()

    if args.list:
        for name in sorted(source):
            mark = " " if name in documented else "!"
            print(f"{mark} {name}: {', '.join(source[name])}")
        return 0

    problems: list[str] = []
    if len(source) > CEILING:
        problems.append(
            f"src/ names {len(source)} REPRO_* variables, above the "
            f"ceiling of {CEILING}: retire one (a setting that an API "
            "or CLI option already covers needs no variable) rather "
            "than add one; when a name goes, lower CEILING in "
            "scripts/check_env_docs.py to match"
        )
    for name in sorted(source):
        if name not in documented:
            problems.append(
                f"{name} is read in {', '.join(source[name])} "
                "but missing from README.md's REPRO_* reference table"
            )
    for name in sorted(documented - set(source)):
        problems.append(
            f"{name} has a README.md reference-table row but no longer "
            "appears anywhere under src/"
        )
    consumers = vars_in_source(*CONSUMER_DIRS)
    for name in sorted(set(consumers) - set(source)):
        problems.append(
            f"{name} is named in {', '.join(consumers[name])} "
            "but src/ no longer reads it"
        )

    if problems:
        for problem in problems:
            print(f"ENV-DOCS: {problem}", file=sys.stderr)
        return 1
    print(
        f"env docs fresh: {len(source)} REPRO_* variables in src/ "
        f"(ceiling {CEILING}) all documented in README.md (and none "
        "stale or named only outside src/)"
    )
    if len(source) < CEILING:
        print(f"lower CEILING in scripts/check_env_docs.py to {len(source)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
