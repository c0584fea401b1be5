"""Immutable multisets represented as sorted tuples.

The paper defines both edge and node constraints as *sets of multisets* of
output labels (Section 3, "Problems").  We represent a multiset as a sorted
tuple, which is hashable, canonical (two multisets are equal iff their tuples
are equal) and cheap to build.  The helpers here provide the small amount of
multiset combinatorics the engine needs: enumeration of all multisets of a
given size over a ground set, sub-multiset tests and sub-multiset
enumeration.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import combinations_with_replacement
from typing import TypeVar

T = TypeVar("T", bound=Hashable)

# A multiset over T is canonically a sorted tuple of T.
Multiset = tuple


def multiset(items: Iterable[T]) -> tuple[T, ...]:
    """Return the canonical (sorted-tuple) form of a multiset.

    >>> multiset(["b", "a", "b"])
    ('a', 'b', 'b')
    """
    return tuple(sorted(items))


def multisets_of_size(ground: Iterable[T], size: int) -> Iterator[tuple[T, ...]]:
    """Yield every multiset of exactly ``size`` elements over ``ground``.

    Elements are drawn with repetition; each multiset is yielded once in
    canonical form.  The count is ``C(len(ground) + size - 1, size)``.
    """
    ordered = sorted(set(ground))
    yield from combinations_with_replacement(ordered, size)


def multiset_contains(big: Sequence[T], small: Sequence[T]) -> bool:
    """Return True iff ``small`` is a sub-multiset of ``big``.

    Both arguments are multisets in any order; multiplicities are respected.

    >>> multiset_contains(("a", "a", "b"), ("a", "b"))
    True
    >>> multiset_contains(("a", "b"), ("a", "a"))
    False
    """
    remaining = Counter(big)
    remaining.subtract(Counter(small))
    return all(count >= 0 for count in remaining.values())


def submultisets_of_size(items: Sequence[T], size: int) -> Iterator[tuple[T, ...]]:
    """Yield every distinct sub-multiset of ``items`` with exactly ``size`` elements.

    >>> sorted(submultisets_of_size(("a", "a", "b"), 2))
    [('a', 'a'), ('a', 'b')]
    """
    if size > len(items):
        return
    seen: set[tuple[T, ...]] = set()
    for combo in combinations_with_replacement(sorted(set(items)), size):
        if combo not in seen and multiset_contains(items, combo):
            seen.add(combo)
            yield combo


def multiset_difference(big: Sequence[T], small: Sequence[T]) -> tuple[T, ...]:
    """Return ``big`` minus ``small`` as a canonical multiset.

    Raises ``ValueError`` if ``small`` is not a sub-multiset of ``big``.
    """
    remaining = Counter(big)
    remaining.subtract(Counter(small))
    if any(count < 0 for count in remaining.values()):
        raise ValueError(f"{small!r} is not a sub-multiset of {big!r}")
    return tuple(sorted(remaining.elements()))
