"""Packaging metadata for the reproduction.

The evaluation environment has no network and no `wheel` package, so
PEP 517 editable builds cannot always build an editable wheel; keeping
the metadata in a plain ``setup.py`` lets ``pip install -e .`` fall
back to the legacy ``setup.py develop`` path everywhere.

The install requirements mirror exactly what CI installs by hand
(numpy for the data plane, networkx for the irregular-mesh workloads);
test/bench extras live under the ``dev`` extra.  The version is read
from ``src/repro/__init__.py`` so the package root stays the single
source of truth.
"""
import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    init = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "src", "repro", "__init__.py"
    )
    with open(init) as fh:
        match = re.search(r"^__version__ = \"([^\"]+)\"", fh.read(), re.M)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-vienna-fortran",
    version=_version(),
    description=(
        "Reproduction of 'Dynamic Data Distributions in Vienna Fortran' "
        "(SC'93): distribution model, Vienna Fortran Engine, automatic "
        "distribution planner, SPMD backends, discrete-event execution "
        "simulator"
    ),
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "networkx",
    ],
    extras_require={
        "dev": [
            "pytest",
            "hypothesis",
            "pytest-benchmark",
            "pytest-timeout",
        ],
    },
)
