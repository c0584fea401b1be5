"""Canonical forms of problems, invariant under label renaming.

The engine's memo cache (:mod:`repro.engine.cache`) is *content addressed*:
two problems that differ only in their label names (and their cosmetic
``name`` field) must map to the same cache key, because the speedup
derivation is equivariant under label renaming -- ``speedup(rename(Pi))`` is
``rename(speedup(Pi))`` up to the fresh short names of the derived alphabet.
Round elimination produces exactly such renamed twins all the time: every
iteration renames the derived labels to ``A, B, C, ...``, and the analysis
drivers re-derive the same catalog problems under different display names.

The canonical form is computed in two stages:

1. **Refinement.**  Labels are partitioned by iterated signature refinement
   (1-WL on the constraint hypergraph): the initial color is a counting
   signature, and each round refines by the multiset of neighbor colors in
   edge configurations and the multiset of colored node-configuration
   profiles.  Both are isomorphism-invariant, so equivalent labels of
   renamed twins land in equal classes.

2. **Minimal encoding.**  Within-class ties are broken exactly, by
   enumerating the (usually tiny) product of per-class permutations and
   keeping the lexicographically smallest constraint encoding.  When a
   problem is so symmetric that the enumeration would be large
   (> ``PERMUTATION_BUDGET`` orderings), we fall back to an *exact* encoding
   keyed on the actual label names: still a sound cache key (only
   structurally identical problems collide), just blind to renamings.

Both stages run over the interned index view (:mod:`repro.core.alphabet`):
refinement walks precomputed per-label incidence lists instead of rescanning
every constraint per label per round, and the tie-breaking encoder permutes
integer arrays.  Signatures and encodings contain only class ids, counts and
indices -- never label names -- so the computed keys are byte-identical to
the legacy string path's (asserted by the differential tests): existing
on-disk caches stay valid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from itertools import chain, permutations, product
from math import factorial

from repro.core.alphabet import CanonicalHash, intern
from repro.core.problem import Label, Problem

# Cap on the number of tie-breaking orderings tried.  8! covers every
# fully-symmetric alphabet up to 8 labels; refinement splits larger ones in
# practice, and the exact-name fallback keeps the key sound beyond it.
PERMUTATION_BUDGET = 40_320


@dataclass(frozen=True)
class CanonicalForm:
    """A cache key plus the label ordering that realises it.

    ``key`` is equal for two problems iff they are identical up to label
    renaming (or, for the symmetric fallback, identical outright); in that
    case ``ordering[i]`` of one problem corresponds to ``ordering[i]`` of the
    other, which is how the cache translates a stored result into the
    requesting problem's label space.
    """

    key: CanonicalHash
    ordering: tuple[Label, ...]

    @property
    def index(self) -> dict[Label, int]:
        return {label: i for i, label in enumerate(self.ordering)}


class _Incidence:
    """Per-label incidence lists over the interned index view."""

    __slots__ = ("size", "edge_partners", "node_occurrences", "edge_pairs", "node_configs")

    def __init__(self, problem: Problem):
        interned = intern(problem)
        size = interned.alphabet.size
        self.size = size
        self.edge_pairs = sorted(interned.edge_pairs)
        self.node_configs = interned.node_configs
        # edge_partners[i]: the partner index of each edge pair containing i
        # (one entry per pair; a self-loop (i, i) contributes i once).
        edge_partners: list[list[int]] = [[] for _ in range(size)]
        for a, b in self.edge_pairs:
            edge_partners[a].append(b)
            if a != b:
                edge_partners[b].append(a)
        self.edge_partners = edge_partners
        # node_occurrences[i]: (config index, multiplicity of i in it) pairs.
        node_occurrences: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for config_index, config in enumerate(self.node_configs):
            for label_index, count in Counter(config).items():
                node_occurrences[label_index].append((config_index, count))
        self.node_occurrences = node_occurrences


def _initial_colors(
    incidence: _Incidence,
) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Counting signature per label index (isomorphism-invariant seed)."""
    colors: list[tuple[int, int, tuple[tuple[int, int], ...]]] = []
    for i in range(incidence.size):
        partners = incidence.edge_partners[i]
        self_pairs = sum(1 for partner in partners if partner == i)
        other_pairs = len(partners) - self_pairs
        node_profile = Counter(count for _, count in incidence.node_occurrences[i])
        colors.append((self_pairs, other_pairs, tuple(sorted(node_profile.items()))))
    return colors


def _refine(incidence: _Incidence) -> list[int]:
    """Iterated signature refinement; returns a class id per label index.

    Class ids are assigned by sorted signature order, which is deterministic
    and isomorphism-invariant (signatures only mention other class ids and
    counts, never label names).
    """
    seed = _initial_colors(incidence)
    ranked = {sig: rank for rank, sig in enumerate(sorted(set(seed)))}
    color = [ranked[sig] for sig in seed]

    while True:
        # One colored profile per configuration, shared by all its labels.
        config_profiles = [
            tuple(sorted(color[x] for x in config))
            for config in incidence.node_configs
        ]
        signatures = []
        for i in range(incidence.size):
            edge_profile = sorted(color[partner] for partner in incidence.edge_partners[i])
            node_profile = sorted(
                (count, config_profiles[config_index])
                for config_index, count in incidence.node_occurrences[i]
            )
            signatures.append((color[i], tuple(edge_profile), tuple(node_profile)))
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refined = [ranked[sig] for sig in signatures]
        if len(set(refined)) == len(set(color)):
            return refined
        color = refined


def _encode_positions(
    incidence: _Incidence, position: list[int]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """Constraint encoding under an old-index -> position assignment."""
    edges = sorted(
        (position[a], position[b])
        if position[a] <= position[b]
        else (position[b], position[a])
        for a, b in incidence.edge_pairs
    )
    return (tuple(edges), _encode_nodes(incidence, position))


def _encode_nodes(
    incidence: _Incidence, position: list[int]
) -> tuple[tuple[int, ...], ...]:
    nodes = [
        tuple(sorted([position[x] for x in config]))
        for config in incidence.node_configs
    ]
    nodes.sort()
    return tuple(nodes)


def _edge_rank(incidence: _Incidence, position: list[int]) -> list[int]:
    """A value ordered exactly like the edge half of :func:`_encode_positions`.

    Each edge pair ``(low, high)`` packs into ``low * size + high``, which
    sorts and compares like the pair (both entries are below ``size``), so
    the tie-breaking search compares ints instead of building and comparing
    a tuple per pair for every ordering it tries.
    """
    size = incidence.size
    edges = []
    for a, b in incidence.edge_pairs:
        first, second = position[a], position[b]
        edges.append(first * size + second if first <= second else second * size + first)
    edges.sort()
    return edges


def _digest(parts: tuple[object, ...]) -> str:
    return sha256(repr(parts).encode()).hexdigest()


def canonical_form(problem: Problem) -> CanonicalForm:
    """Compute the renaming-invariant canonical form of a problem.

    The cosmetic ``name`` field is deliberately excluded: two copies of the
    same structure under different display names are the same content.
    """
    interned = intern(problem)
    names = interned.alphabet.names
    incidence = _Incidence(problem)
    classes = _refine(incidence)
    class_ids = sorted(set(classes))
    # Indices ascend in name order, so per-class index groups are name-sorted.
    groups: list[list[int]] = [
        [i for i in range(incidence.size) if classes[i] == cid] for cid in class_ids
    ]

    orderings = 1
    for group in groups:
        orderings *= factorial(len(group))
    # Budget also the total encoding work, not just the ordering count.
    work = orderings * (len(problem.edge_constraint) + len(problem.node_constraint) + 1)
    if orderings > PERMUTATION_BUDGET or work > 4_000_000:
        ordering = names
        identity = list(range(incidence.size))
        parts = ("exact", problem.delta, ordering, _encode_positions(incidence, identity))
        return CanonicalForm(
            key=CanonicalHash("exact:" + _digest(parts)), ordering=ordering
        )

    # The smallest (edges, nodes) encoding; the node half is only encoded
    # for orderings whose edge half does not already lose.
    best_rank: tuple[list[int], tuple[tuple[int, ...], ...]] | None = None
    best_order: tuple[int, ...] | None = None
    position = [0] * incidence.size
    for combo in product(*(permutations(group) for group in groups)):
        order = tuple(chain.from_iterable(combo))
        for rank, old_index in enumerate(order):
            position[old_index] = rank
        edges = _edge_rank(incidence, position)
        if best_rank is not None and edges > best_rank[0]:
            continue
        encoding_rank = (edges, _encode_nodes(incidence, position))
        if best_rank is None or encoding_rank < best_rank:
            best_rank = encoding_rank
            best_order = order
    assert best_order is not None
    for rank, old_index in enumerate(best_order):
        position[old_index] = rank
    best_encoding = _encode_positions(incidence, position)
    parts = ("canon", problem.delta, len(problem.labels), best_encoding)
    return CanonicalForm(
        key=CanonicalHash("canon:" + _digest(parts)),
        ordering=tuple(names[i] for i in best_order),
    )


def canonical_hash(problem: Problem) -> CanonicalHash:
    """The content-addressed cache key alone (see :func:`canonical_form`)."""
    return canonical_form(problem).key
