"""Setuptools entry point.

The package metadata lives here, so ``pip install -e .`` works with the
legacy (non-PEP-517) code path, which is the only editable-install path
available in fully offline environments without the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(
        encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="TILT: a trapped-ion linear-tape architecture and its "
                "LinQ compiler, reproduced",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
