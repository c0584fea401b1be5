# relint: path=src/repro/core/speedup.py
"""The full step's materialisation may use the trusted constructor: clean."""

from repro.core.problem import Problem


def materialise(name, delta, labels, edges, nodes):
    return Problem._from_canonical(name, delta, labels, edges, nodes)
