"""Bipartite matching: maximum matching and Hall violators.

Two places in the reproduction need matchings (the speedup engine runs its
own bitmask matching, :func:`repro.core.alphabet.mask_matching_exists`):

* Lemma 2's proof is driven by Hall's marriage theorem -- the algorithmic
  version finds either a matching saturating the index set ``I`` or a *Hall
  violator* ``J`` with ``|J| > |N(J)|``, which is exactly the set the lemma's
  pointer construction needs;
* domination tests between derived node configurations reduce to perfect
  matchings in a containment graph.

The implementation is a plain augmenting-path maximum matching (Kuhn's
algorithm).  All instances in this library are tiny (tens of vertices), so
the simple O(V * E) algorithm is the right tool; it also makes violator
extraction by alternating reachability straightforward.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import TypeVar

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)

Adjacency = Mapping[L, Iterable[R]]


def maximum_bipartite_matching(adjacency: Adjacency) -> dict[L, R]:
    """Return a maximum matching of the bipartite graph ``left -> rights``.

    ``adjacency`` maps each left vertex to the right vertices it may be
    matched to.  The result maps matched left vertices to their partners.
    """
    match_of_right: dict[R, L] = {}
    match_of_left: dict[L, R] = {}

    def try_augment(left: L, visited: set[R]) -> bool:
        for right in adjacency[left]:
            if right in visited:
                continue
            visited.add(right)
            holder = match_of_right.get(right)
            if holder is None or try_augment(holder, visited):
                match_of_right[right] = left
                match_of_left[left] = right
                return True
        return False

    for left in adjacency:
        if left not in match_of_left:
            try_augment(left, set())
    return match_of_left


def perfect_matching_exists(adjacency: Adjacency) -> bool:
    """Return True iff every left vertex can be matched simultaneously."""
    return len(maximum_bipartite_matching(adjacency)) == len(adjacency)


def hall_violator(adjacency: Adjacency) -> frozenset[L] | None:
    """Return a set ``J`` of left vertices with ``|J| > |N(J)|``, or None.

    By Koenig's theorem, such a *Hall violator* exists iff no matching
    saturates the left side.  When the maximum matching leaves some left
    vertex unmatched, the set of left vertices reachable from unmatched left
    vertices by alternating paths is a violator with deficiency equal to the
    number of unmatched vertices.
    """
    matching = maximum_bipartite_matching(adjacency)
    unmatched = [left for left in adjacency if left not in matching]
    if not unmatched:
        return None
    match_of_right: dict[R, L] = {right: left for left, right in matching.items()}

    reachable_left: set[L] = set(unmatched)
    reachable_right: set[R] = set()
    frontier = list(unmatched)
    while frontier:
        left = frontier.pop()
        for right in adjacency[left]:
            if right in reachable_right:
                continue
            reachable_right.add(right)
            holder = match_of_right.get(right)
            if holder is not None and holder not in reachable_left:
                reachable_left.add(holder)
                frontier.append(holder)
    # N(reachable_left) == reachable_right and
    # |reachable_right| == |reachable_left| - len(unmatched) < |reachable_left|.
    return frozenset(reachable_left)
