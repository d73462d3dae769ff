"""One sweep set-up, from a fresh interpreter: prints ``ready`` when done.

Usage: ``python3 perfbench/setup_probe.py <seed>``.  The
parent times process start to the ``ready`` line: interpreter start,
imports of every layer a sweep touches, isolated cache directories and
the seeded profile registration.
"""

from __future__ import annotations

import sys

from common import ROOT, Isolation

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    seed = int(sys.argv[1])
    import repro.harness.runner  # noqa: F401
    import repro.harness.schemes  # noqa: F401
    from sweeps import W10, seeded_names

    iso = Isolation("probe")
    iso.phase("probe")
    seeded_names(W10, seed)
    print("ready", flush=True)
    iso.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
