"""Package metadata for the ``src/``-layout distribution.

Kept as ``setup.py`` (rather than ``pyproject.toml``) so legacy editable
installs (``pip install -e .`` / ``python setup.py develop``) work in
offline environments that lack the ``wheel`` package required by PEP 660
editable wheels.  ``package_dir`` points setuptools at ``src/`` so an
editable install makes ``import repro`` work without ``PYTHONPATH``
gymnastics; CI asserts exactly that.
"""

from setuptools import find_packages, setup

setup(
    name="dsh-repro",
    version="0.1.0",
    description=(
        "Reproduction of Distance-Sensitive Hashing "
        "(Aumüller, Christiani, Pagh, Silvestri; PODS 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
    # ``pip install -e .[dev]``: what the tier-1 tests and the pytest
    # benchmarks import.
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
