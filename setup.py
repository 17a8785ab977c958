"""Setuptools entry point — the project's only packaging metadata.

The version is read from ``src/repro/__init__.py`` (``__version__``), the
single place it is written; the package itself is not imported, so
``pip install -e .`` works before the dependencies are installed.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Atlas reproduction: hierarchical partitioning for quantum circuit "
        "simulation (SC 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # sim/smkernel.c and sim/beam.c are built on first use
    # (repro.sim.native), never at install time: they ship as source.
    package_data={"repro": ["py.typed", "sim/*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
