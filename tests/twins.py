"""Shared check for canonical keys under renaming (imported by the test modules)."""

from __future__ import annotations

import random

from repro.core.canonical import canonical_form
from repro.core.problem import Problem
from repro.core.relaxation import is_isomorphism_map


def renamed_twin(problem: Problem, seed: int = 0) -> Problem:
    """``problem`` under shuffled fresh label names (the sorted order moves)."""
    fresh = [f"t{i:04d}" for i in range(len(problem.labels))]
    random.Random(seed).shuffle(fresh)
    return problem.renamed(dict(zip(sorted(problem.labels), fresh)), name="twin")


def assert_twin_shares_key(problem: Problem) -> None:
    """A renamed twin gets the same key, and the map the two canonical
    orderings induce passes the bijection check that shares no code with
    the canonicaliser."""
    twin = renamed_twin(problem)
    form, twin_form = canonical_form(problem), canonical_form(twin)
    assert form.key.startswith("canon2:")
    assert twin_form.key == form.key
    assert is_isomorphism_map(problem, twin, dict(zip(form.ordering, twin_form.ordering)))
