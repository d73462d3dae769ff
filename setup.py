"""Package metadata for the ``repro`` simulator (sources under ``src/``).

There is no pyproject.toml; everything is declared here, and the
version is read from ``src/repro/__init__.py`` so it has one home.

Editable install: ``pip install --no-deps --no-build-isolation -e .``
needs the ``wheel`` package next to setuptools (older setuptools builds
PEP 660 editable wheels through it).  Where ``wheel`` is missing, as in
an offline environment with only the bundled setuptools,
``python setup.py develop --no-deps`` installs the same ``src`` link.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro-acic",
    version=VERSION,
    description=(
        "Trace-driven reproduction of ACIC: Admission-Controlled Instruction Cache"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
