"""Canonical forms of problems, invariant under label renaming.

The engine's memo cache (:mod:`repro.engine.cache`) is *content addressed*:
two problems that differ only in their label names (and their cosmetic
``name`` field) must map to the same cache key, because the speedup
derivation is equivariant under label renaming -- ``speedup(rename(Pi))`` is
``rename(speedup(Pi))`` up to the fresh short names of the derived alphabet.
Round elimination produces exactly such renamed twins all the time: every
iteration renames the derived labels to ``A, B, C, ...``, and the analysis
drivers re-derive the same catalog problems under different display names.
Recognising them is also how a fixed point -- a derived ``Pi_1`` that is a
renamed copy of an earlier problem, the Omega(log n) certificate -- is found.

The canonical labelling is one individualisation-refinement search (McKay
and Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014)
over the interned bitmask view (:mod:`repro.core.alphabet`):

1. **Refinement.**  The labels and the node configurations are the elements
   of one ordered partition, labels and configurations in separate cells.
   A queue of splitter cells refines it to an equitable partition: a cell
   splits by how strongly its members link to a splitter -- labels to
   labels through edge pairs, labels and configurations through
   occurrences, weighted by multiplicity.  The counts are bit-sliced (one
   mask per counter bit, summed from the interned adjacency masks), so a
   split costs a few integer operations per cell, not a loop over labels.
   Every decision reads counts and cell positions only, never label names,
   so refinement commutes with renaming.
2. **Search.**  While some label cell has several members, each member of
   the first smallest one in turn is individualised (made a singleton cell
   in front of the rest) and the partition refined again.  Every leaf -- all
   cells singletons -- orders the labels; the key hashes the least encoding
   of the constraints over all leaf orderings.
3. **Automorphism pruning.**  Two leaves with equal encodings differ by an
   automorphism.  A child in the same orbit as an explored sibling, under
   the automorphisms found that fix the node's individualised labels, roots
   an isomorphic subtree: it is skipped, or abandoned once found redundant.

The form is exact at every alphabet size: two problems share a key iff they
are identical up to label renaming, and then ``ordering[i]`` of one
corresponds to ``ordering[i]`` of the other, which is how
:func:`find_isomorphism` and the cache's result translation map labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from operator import itemgetter

from repro.core.alphabet import CanonicalHash, InternedProblem, intern, iter_bits
from repro.core.problem import Label, Problem

#: Keys of an earlier encoding carry another prefix, so they never match.
_PREFIX = "canon2:"


@dataclass(frozen=True)
class CanonicalForm:
    """A cache key plus the label ordering that realises it.

    ``key`` is equal for two problems iff they are identical up to label
    renaming; in that case ``ordering[i]`` of one problem corresponds to
    ``ordering[i]`` of the other, which is how the cache translates a stored
    result into the requesting problem's label space.
    """

    key: CanonicalHash
    ordering: tuple[Label, ...]


def _add(counter: list[int], mask: int, level: int) -> None:
    """Add ``2 ** level`` to the bit-sliced count of each member of ``mask``.

    ``counter[j]`` is the mask of the elements whose count has bit ``j`` set.
    """
    while mask:
        if level >= len(counter):
            counter.extend([0] * (level - len(counter)))
            counter.append(mask)
            return
        bits = counter[level]
        counter[level] = bits ^ mask
        mask &= bits
        level += 1


def _split(
    cells: list[int], open_cells: list[int], counter: list[int], queue: dict[int, None]
) -> list[int]:
    """Split every open cell by its members' counts, ascending; return the
    starts of the cells still open.

    ``cells[s]`` is the member mask of the cell starting at position ``s``
    (0 inside a cell); ``open_cells`` lists, ascending, the starts of the
    cells with several members.  The pieces of a queued cell all join
    ``queue``; of any other cell, all but the first largest (its counts
    follow from the rest's).
    """
    levels = [bits for bits in reversed(counter) if bits]  # high bits first
    still_open = []
    for start in open_cells:
        cell = cells[start]
        for bits in levels:
            if 0 != cell & bits != cell:
                break
        else:
            still_open.append(start)
            continue
        pieces = [cell]  # split by each bit in turn, so counts ascend
        for bits in levels:
            pieces = [part for piece in pieces for part in (piece & ~bits, piece & bits) if part]
        queued = queue.pop(cell, 0) is None
        largest = max(pieces, key=int.bit_count)
        for piece in pieces:
            cells[start] = piece
            if queued or piece != largest:
                queue[piece] = None
            if piece & (piece - 1):
                still_open.append(start)
            start += piece.bit_count()
    return still_open


class _Search:
    """One canonical-labelling search over an interned problem.

    Elements ``0 .. size - 1`` are the labels, the next ones the node
    configurations.  An edge pair links two labels with weight 1; a label
    held ``k`` times by a configuration links the two with weight
    ``2 ** ((k - 1) * width)``, so counts separate the multiplicities.
    """

    def __init__(self, interned: InternedProblem):
        size = interned.alphabet.size
        self.size = size
        self.configs = interned.node_configs
        self.rows = [format(mask, f"0{size}b") for mask in interned.adjacency]
        width = (size + len(self.configs)).bit_length()
        links: list[dict[int, int]] = [{0: mask} for mask in interned.adjacency]
        links.extend({} for _ in self.configs)
        for element, config in enumerate(self.configs, size):
            for label in set(config):
                level = (config.count(label) - 1) * width
                links[label][level] = links[label].get(level, 0) | 1 << element
                links[element][level] = links[element].get(level, 0) | 1 << label
        self.links = [list(levels.items()) for levels in links]
        self.best: tuple[list[tuple[int, ...]], str] | None = None
        self.best_order: list[int] = []
        self.path: list[int] = []
        # Per node on the path: its tried children and the automorphisms
        # found that fix its path (gamma[i] is the image of label i).
        self.stack: list[tuple[list[int], list[list[int]]]] = []

    def refine(self, cells: list[int], open_cells: list[int], queue: dict[int, None]) -> list[int]:
        """Refine with the queued splitters until the label cells are singletons
        or the partition is equitable; return the starts still open."""
        links = self.links
        while queue and open_cells and open_cells[0] < self.size:
            splitter, _ = queue.popitem()
            counter: list[int] = []
            for member in iter_bits(splitter):
                for level, mask in links[member]:
                    _add(counter, mask, level)
            open_cells = _split(cells, open_cells, counter, queue)
        return open_cells

    def explore(self, cells: list[int], open_cells: list[int]) -> int:
        """Search below one node; return the depth whose children continue.

        A return value below this node's depth abandons the node: an
        automorphism showed its subtree repeats one already searched.
        """
        label_open = [start for start in open_cells if start < self.size]
        if not label_open:
            return self.leaf(cells)
        start = min(label_open, key=lambda s: (cells[s].bit_count(), s))
        target = cells[start]
        depth = len(self.path)
        tried: list[int] = []
        # The automorphisms found so far that fix this node's path.
        generators: list[list[int]] = []
        if depth:
            fixed = self.path[-1]
            generators = [gamma for gamma in self.stack[-1][1] if gamma[fixed] == fixed]
        self.stack.append((tried, generators))
        for member in iter_bits(target):
            if tried and _joins(member, tried, generators):
                continue
            child = cells[:]
            child[start], child[start + 1] = 1 << member, target ^ 1 << member
            child_open = [s for s in open_cells if s != start]
            if target.bit_count() > 2:
                child_open = sorted(child_open + [start + 1])
            child_open = self.refine(child, child_open, {1 << member: None})
            self.path.append(member)
            resume = self.explore(child, child_open)
            self.path.pop()
            tried.append(member)
            if resume < depth:
                break
        else:
            resume = depth
        self.stack.pop()
        return resume

    def leaf(self, cells: list[int]) -> int:
        """Compare a leaf's encoding with the best; record an automorphism
        on a tie and return the depth to resume at."""
        depth = len(self.path)
        size = self.size
        order = [cell.bit_length() - 1 for cell in cells[:size]]
        position = [0] * size
        for index, label in enumerate(order):
            position[label] = index
        nodes = sorted(tuple(sorted([position[label] for label in config])) for config in self.configs)
        edges = ""
        if size:
            # The adjacency matrix in this order, row by row: rows[i][j] is
            # bit size - 1 - j of label i's mask.
            pick = itemgetter(*[size - 1 - label for label in order])
            edges = "".join(["".join(pick(self.rows[label])) for label in order])
        encoding = (nodes, edges)
        if self.best is None or encoding < self.best:
            self.best, self.best_order = encoding, order
            return depth
        if encoding > self.best:
            return depth
        gamma = [0] * size
        for image, label in zip(order, self.best_order):
            gamma[label] = image
        # Hand gamma to every ancestor whose path it fixes, and abandon up to
        # the highest one whose child on this path now repeats a tried one.
        for level, (tried, generators) in enumerate(self.stack):
            generators.append(gamma)
            label = self.path[level]
            if _joins(label, tried, generators):
                return level
            if gamma[label] != label:
                break
        return depth


def _joins(member: int, tried: list[int], generators: list[list[int]]) -> bool:
    """Is ``member`` in the orbit of a tried label under ``generators``?"""
    orbit = {member}
    frontier = [member]
    while frontier:
        point = frontier.pop()
        for gamma in generators:
            image = gamma[point]
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return not orbit.isdisjoint(tried)


def canonical_form(problem: Problem) -> CanonicalForm:
    """Compute the renaming-invariant canonical form of a problem, once per instance.

    The cosmetic ``name`` field is deliberately excluded: two copies of the
    same structure under different display names are the same content.  The
    form is memoised on the interned view, so every layer keying on it asks
    here instead of being handed the key; a pickled or ``from_dict`` copy is
    a new instance and hashes once again.
    """
    interned = intern(problem)
    if interned._canonical_form is not None:
        return interned._canonical_form
    search = _Search(interned)
    size, count = search.size, len(search.configs)
    cells = [0] * (size + count)
    queue: dict[int, None] = {}
    open_cells: list[int] = []
    for start, members in ((0, size), (size, count)):
        if members:
            cells[start] = ((1 << members) - 1) << start
            queue[cells[start]] = None
        if members > 1:
            open_cells.append(start)
    search.explore(cells, search.refine(cells, open_cells, queue))
    assert search.best is not None
    parts = (problem.delta, size, *search.best)
    names = interned.alphabet.names
    interned._canonical_form = CanonicalForm(
        key=CanonicalHash(_PREFIX + sha256(repr(parts).encode()).hexdigest()),
        ordering=tuple(names[label] for label in search.best_order),
    )
    return interned._canonical_form


def canonical_hash(problem: Problem) -> CanonicalHash:
    """The content-addressed cache key alone (see :func:`canonical_form`)."""
    return canonical_form(problem).key


def find_isomorphism(first: Problem, second: Problem) -> dict[Label, Label] | None:
    """Return a label bijection mapping ``first`` onto ``second``, or None.

    The bijection maps the edge constraint of ``first`` exactly onto that of
    ``second`` and likewise the node constraint: it pairs the labels at equal
    positions of the two canonical orderings.  Labels unused by any
    configuration still participate (they must map to similarly-unused
    labels), so problems differing only in dead labels are not isomorphic;
    call :meth:`Problem.compressed` first if that distinction is unwanted.
    """
    left, right = canonical_form(first), canonical_form(second)
    if left.key != right.key:
        return None
    return dict(zip(left.ordering, right.ordering))


def are_isomorphic(first: Problem, second: Problem) -> bool:
    """Return True iff a constraint-preserving label bijection exists."""
    return canonical_hash(first) == canonical_hash(second)
