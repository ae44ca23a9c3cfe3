"""Packaging for the ``repro`` package (the Gelee reproduction).

All metadata lives here; the version is read from
``src/repro/__init__.py`` so it is kept in one place.  Install with
``pip install -e .`` or run from a checkout with ``PYTHONPATH=src``.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version():
    with open(os.path.join(HERE, "src", "repro", "__init__.py")) as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
