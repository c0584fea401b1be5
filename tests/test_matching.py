"""Tests for bipartite matching and Hall violators."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.matching import (
    hall_violator,
    maximum_bipartite_matching,
    perfect_matching_exists,
)


def test_perfect_matching_simple():
    adjacency = {"a": [1, 2], "b": [1], "c": [2, 3]}
    matching = maximum_bipartite_matching(adjacency)
    assert len(matching) == 3
    assert perfect_matching_exists(adjacency)


def test_augmenting_path_needed():
    # Greedy left-to-right would match a->1 and strand b; augmenting fixes it.
    adjacency = {"a": [1, 2], "b": [1]}
    assert perfect_matching_exists(adjacency)


def test_no_perfect_matching():
    adjacency = {"a": [1], "b": [1]}
    assert not perfect_matching_exists(adjacency)
    matching = maximum_bipartite_matching(adjacency)
    assert len(matching) == 1


def test_hall_violator_none_when_saturated():
    assert hall_violator({"a": [1], "b": [2]}) is None


def test_hall_violator_found():
    adjacency = {"a": [1], "b": [1], "c": [1, 2]}
    violator = hall_violator(adjacency)
    assert violator is not None
    neighborhood = {r for left in violator for r in adjacency[left]}
    assert len(violator) > len(neighborhood)


def test_hall_violator_deficiency_two():
    adjacency = {"a": [1], "b": [1], "c": [1]}
    violator = hall_violator(adjacency)
    assert violator == frozenset({"a", "b", "c"})


@st.composite
def bipartite_instances(draw):
    n_left = draw(st.integers(1, 5))
    n_right = draw(st.integers(1, 5))
    adjacency = {}
    for left in range(n_left):
        adjacency[left] = draw(
            st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right)
        )
    return adjacency


@given(bipartite_instances())
def test_matching_is_valid(adjacency):
    matching = maximum_bipartite_matching(adjacency)
    # Matched pairs use actual edges and distinct right vertices.
    assert len(set(matching.values())) == len(matching)
    for left, right in matching.items():
        assert right in adjacency[left]


@given(bipartite_instances())
def test_koenig_dichotomy(adjacency):
    """Either the left side is saturated or a genuine Hall violator exists."""
    matching = maximum_bipartite_matching(adjacency)
    violator = hall_violator(adjacency)
    if len(matching) == len(adjacency):
        assert violator is None
    else:
        assert violator is not None
        neighborhood = {r for left in violator for r in adjacency[left]}
        assert len(violator) > len(neighborhood)
