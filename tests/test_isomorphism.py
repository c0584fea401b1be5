"""Tests for canonical keys and problem isomorphism detection."""

import random
from collections import Counter

import pytest

from twins import assert_twin_shares_key, renamed_twin
from repro.core import canonical
from repro.core.canonical import are_isomorphic, find_isomorphism
from repro.core.problem import Problem
from repro.core.speedup import compute_speedup
from repro.engine import Engine, EngineConfig
from repro.problems.catalog import get_problem
from repro.problems.coloring import coloring
from repro.problems.sinkless import sinkless_coloring

#: The single-step derivations of the ``derive-cold`` benchmark workload;
#: their Pi_1 have 2 to 976 labels.
DERIVE_CASES = [
    ("sinkless-orientation", 3),
    ("sinkless-coloring", 5),
    ("3-coloring", 3),
    ("mis", 3),
    ("maximal-matching", 3),
    ("weak-2-coloring", 3),
    ("weak-2-coloring", 4),
    ("superweak-2-coloring", 3),
    ("4-coloring", 2),
    ("weak-3-coloring", 2),
    ("superweak-3-coloring", 2),
]
#: The two 976-label Pi_1, a few seconds each.
HEAVY_CASES = {("weak-3-coloring", 2), ("superweak-3-coloring", 2)}


@pytest.mark.parametrize(
    "name,delta",
    [
        pytest.param(name, delta, marks=[pytest.mark.slow] if (name, delta) in HEAVY_CASES else [])
        for name, delta in DERIVE_CASES
    ],
)
def test_derived_problem_twin_shares_key(name, delta):
    assert_twin_shares_key(compute_speedup(get_problem(name, delta)).full)


def test_identity_isomorphism(sc3):
    mapping = find_isomorphism(sc3, sc3)
    assert mapping == {"0": "0", "1": "1"}


def test_renaming_is_isomorphic(sc3):
    renamed = sc3.renamed({"0": "x", "1": "y"})
    mapping = find_isomorphism(sc3, renamed)
    assert mapping == {"0": "x", "1": "y"}


def test_isomorphism_verifies_exactly():
    # Same label counts and signatures would pass naive checks; the
    # constraints differ, so no isomorphism exists.
    first = Problem.make("p", 2, [("a", "b")], [("a", "a"), ("b", "b")])
    second = Problem.make("q", 2, [("a", "a")], [("a", "b"), ("b", "b")])
    assert not are_isomorphic(first, second)


def test_different_sizes_fail_fast(sc3, col3_ring):
    assert not are_isomorphic(sc3, col3_ring)


def test_different_delta_fail(sc3):
    other = sinkless_coloring(4)
    assert not are_isomorphic(sc3, other)


def test_coloring_color_permutations():
    first = coloring(3, 2)
    # Swap two colors: still isomorphic, and the map must be a permutation.
    second = first.renamed({"c1": "c2", "c2": "c1", "c3": "c3"}, name="swapped")
    mapping = find_isomorphism(first, second)
    assert mapping is not None
    assert sorted(mapping.values()) == sorted(first.labels)


def test_dead_labels_matter():
    alive = Problem.make("p", 2, [("a", "a")], [("a", "a")], labels=["a"])
    with_dead = Problem.make("q", 2, [("a", "a")], [("a", "a")], labels=["a", "z"])
    assert not are_isomorphic(alive, with_dead)
    assert are_isomorphic(alive, with_dead.compressed())


def test_asymmetric_signature_pruning():
    """Labels with distinct roles can only map to their counterparts."""
    first = Problem.make("p", 2, [("a", "a"), ("a", "b")], [("a", "b")])
    second = Problem.make("q", 2, [("x", "x"), ("x", "y")], [("x", "y")])
    mapping = find_isomorphism(first, second)
    assert mapping == {"a": "x", "b": "y"}


def test_self_loop_edge_config_distinguishes():
    first = Problem.make("p", 2, [("a", "b")], [("a", "b")])
    second = Problem.make("q", 2, [("a", "a")], [("a", "b")])
    assert not are_isomorphic(first, second)


def _random_delta2(seed: int) -> Problem:
    rng = random.Random(seed)
    labels = ["a", "b", "c", "d"][: rng.randint(3, 4)]
    edges = {tuple(sorted(rng.choices(labels, k=2))) for _ in range(4)}
    nodes = {tuple(sorted(rng.choices(labels, k=2))) for _ in range(4)}
    return Problem.make(f"random-{seed}", 2, edges, nodes, labels=labels)


def test_classify_and_verify_canonicalise_each_instance_once(monkeypatch):
    """The speedup cache, the 0-round memo, beam dedup, the revisit test and
    verify() all key on one canonical form per problem instance: no
    instance runs the canonical-labelling search twice."""
    searches: Counter[int] = Counter()
    searched = []  # keeps every counted view alive, so no id is reused
    search = canonical._Search

    def counting(interned):
        searches[id(interned)] += 1
        searched.append(interned)
        return search(interned)

    monkeypatch.setattr(canonical, "_Search", counting)
    engine = Engine(
        EngineConfig(executor="serial", max_derived_labels=2_000, max_candidate_configs=50_000)
    )
    # Seed 7 classifies [3, ?] open, so both search directions run.
    problems = (get_problem("3-coloring", 2), get_problem("mis", 3), renamed_twin(_random_delta2(7)))
    for problem in problems:
        assert engine.classify(problem, max_steps=2).bracket.verify().valid
    repeated = sum(1 for count in searches.values() if count > 1)
    assert searches and not repeated, f"{repeated} of {len(searches)} instances hashed twice"
