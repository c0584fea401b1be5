# relint: path=src/repro/engine/example.py
"""Trusted copies through Problem transforms, validated input via make: clean."""

from repro.core.problem import Problem


def rebrand(stored, name, edges, nodes):
    return stored.with_name(name), Problem.make(name, stored.delta, edges, nodes)
