"""Unit and property tests for the multiset helpers."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.multiset import (
    multiset,
    multiset_contains,
    multiset_difference,
    multisets_of_size,
    submultisets_of_size,
)


def test_multiset_is_sorted_tuple():
    assert multiset(["b", "a", "b"]) == ("a", "b", "b")


def test_multiset_empty():
    assert multiset([]) == ()


def test_multisets_of_size_count():
    ground = ["x", "y", "z"]
    for size in range(5):
        produced = list(multisets_of_size(ground, size))
        assert len(produced) == comb(len(ground) + size - 1, size)
        assert len(set(produced)) == len(produced)


def test_multisets_of_size_canonical():
    for ms in multisets_of_size("ab", 3):
        assert tuple(sorted(ms)) == ms


def test_multisets_of_size_deduplicates_ground():
    assert list(multisets_of_size(["a", "a", "b"], 1)) == [("a",), ("b",)]


def test_contains_respects_multiplicity():
    assert multiset_contains(("a", "a", "b"), ("a", "a"))
    assert not multiset_contains(("a", "b"), ("a", "a"))
    assert multiset_contains(("a",), ())


def test_submultisets_of_size():
    subs = sorted(submultisets_of_size(("a", "a", "b"), 2))
    assert subs == [("a", "a"), ("a", "b")]


def test_submultisets_too_large():
    assert list(submultisets_of_size(("a",), 2)) == []


def test_union_and_difference_roundtrip():
    big = tuple(sorted(("a", "b") + ("b", "c")))
    assert big == ("a", "b", "b", "c")
    assert multiset_difference(big, ("b", "c")) == ("a", "b")


def test_difference_rejects_non_submultiset():
    with pytest.raises(ValueError):
        multiset_difference(("a",), ("b",))


@given(st.lists(st.sampled_from("abcd"), max_size=8))
def test_multiset_idempotent(items):
    once = multiset(items)
    assert multiset(once) == once


@given(
    st.lists(st.sampled_from("abc"), max_size=6),
    st.lists(st.sampled_from("abc"), max_size=6),
)
def test_union_contains_both_parts(first, second):
    union = tuple(sorted(multiset(first) + multiset(second)))
    assert multiset_contains(union, multiset(first))
    assert multiset_contains(union, multiset(second))
    assert multiset_difference(union, multiset(first)) == multiset(second)


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6), st.integers(0, 6))
def test_submultisets_are_contained(items, size):
    base = multiset(items)
    for sub in submultisets_of_size(base, size):
        assert multiset_contains(base, sub)
        assert len(sub) == size
