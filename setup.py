"""Setup shim for environments without the ``wheel`` package.

``pip install -e . --no-build-isolation --no-use-pep517`` uses this file.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Bounded evaluability of relational queries under access constraints "
        "(reproduction of Cao & Fan, SIGMOD 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
