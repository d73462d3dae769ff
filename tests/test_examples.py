"""Every script in ``examples/`` runs to completion.

The examples are the library's public face, so each one — and the
quick start in the ``repro`` package docstring — runs in a subprocess with every disk cache redirected to a temporary directory
and switched off: it must exit 0 and leave the repository's ``.cache/``
exactly as it found it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: The package docstring, whose "Quick start::" block runs as a script.
PACKAGE_INIT = ROOT / "src" / "repro" / "__init__.py"


def _script(path: Path, tmp_path: Path) -> Path:
    """``path`` itself, or the package quick start written to a file."""
    if path != PACKAGE_INIT:
        return path
    doc = ast.get_docstring(ast.parse(path.read_text()))
    block = doc.split("Quick start::", 1)[1].split("\n\n")[1]
    script = tmp_path / "package_quickstart.py"
    script.write_text(textwrap.dedent(block))
    return script


def _cache_listing():
    cache = ROOT / ".cache"
    return sorted(
        (str(p.relative_to(cache)), p.stat().st_size)
        for p in cache.rglob("*")
        if p.is_file()
    )


@pytest.mark.parametrize(
    "script",
    EXAMPLES + [PACKAGE_INIT],
    ids=lambda p: "repro-docstring" if p == PACKAGE_INIT else p.name,
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    env["REPRO_PLAN_CACHE"] = str(tmp_path / "plans")
    env["REPRO_NO_DISK_CACHE"] = "1"
    before = _cache_listing()
    proc = subprocess.run(
        [sys.executable, str(_script(script, tmp_path))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _cache_listing() == before
