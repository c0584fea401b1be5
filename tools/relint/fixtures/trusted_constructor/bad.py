# relint: path=src/repro/engine/example.py
"""Unvalidated construction outside the sanctioned modules: 2 hits."""

from repro.core import problem
from repro.core.problem import Problem


def rebrand(stored, name):
    direct = Problem._from_canonical(  # violation: skips validation
        name,
        stored.delta,
        stored.labels,
        stored.edge_constraint,
        stored.node_constraint,
    )
    qualified = problem.Problem._from_canonical(  # violation
        name, stored.delta, stored.labels, stored.edge_constraint, stored.node_constraint
    )
    return direct, qualified
