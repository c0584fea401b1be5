"""Packaging for the round-elimination repro.

The execution environment is offline and has no ``wheel`` package, so PEP 660
editable installs (which must build a wheel) fail.  Keeping the metadata in
classic ``setup.py`` form lets ``pip install -e .`` fall back to the
``setup.py develop`` path, which works with the stock setuptools here.

``package_data`` ships the ``py.typed`` marker (PEP 561) so downstream type
checkers see the kernel's ``LabelMask`` / ``LabelIndex`` / ``CanonicalHash``
NewTypes instead of treating ``repro`` as untyped.
"""

from setuptools import find_packages, setup

setup(
    name="repro-round-elimination",
    version="0.6.0",
    description=(
        "Round elimination and the automatic speedup theorem for distributed "
        "problems (Brandt, PODC 2019): derivation engine, lower-bound search, "
        "and machine-checkable certificates"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    zip_safe=False,
    # numpy: the derivation's batched matching and materialisation folds
    # (repro.core.vectorkernel) and repro.superweak.membership; scipy: the
    # MILP feasibility check in repro.superweak.membership; networkx: the
    # LOCAL-model simulator (repro.sim).
    install_requires=["numpy>=2", "scipy", "networkx"],
    extras_require={
        # Static-analysis toolchain; see requirements-dev.txt for the
        # CI-pinned versions.
        "dev": ["mypy>=1.11", "pytest>=8"],
    },
)
