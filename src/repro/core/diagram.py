"""The label strength diagram: which labels dominate which.

Round-elimination practice (and Olivetti's Round Eliminator) leans on a
partial order between output labels: ``a <= b`` ("b is at least as strong as
a") iff replacing one occurrence of ``a`` by ``b`` keeps every allowed
configuration allowed -- in both the edge and the node constraint.  Strong
labels are always safe substitutes, so:

* relaxations can collapse a label up to a stronger one;
* derived set-labels can be normalised to upward-closed sets;
* problem descriptions shrink by merging equivalent labels.

The diagram of a *derived* problem is particularly structured: after a half
step, set-labels compare by inclusion of their meanings, which is exactly
the order :mod:`repro.core.speedup` exploits.  This module computes the
diagram of an arbitrary problem directly from its constraints; the move
generator (:mod:`repro.search.moves`) applies the resulting normalisations.

The computation runs on the bitmask kernel (:mod:`repro.core.alphabet`): the
edge-side replaceability condition is one adjacency-mask subset test
(``adj(weak) <= adj(strong)``), and the node side swaps indices inside
interned configuration tuples with set-membership lookups.  The public
:class:`Diagram` keeps the string surface.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.alphabet import InternedProblem, intern, iter_bits
from repro.core.problem import Label, Problem

# -- construction counter hook ------------------------------------------------
#
# Diagram computation is quadratic in the alphabet and shows up in search
# profiles; the full replaceability grid is therefore computed at most once
# per interned problem (cached on the :class:`InternedProblem` instance) and
# shared by every consumer -- ``compute_diagram``, the move generator, and
# the search driver.  The counter lets regression tests assert that the
# sharing holds: ``diagram_build_count()`` is a monotone process-wide count
# of actual grid constructions (cache hits do not count).

_build_lock = threading.Lock()
_builds = 0


def diagram_build_count() -> int:
    """How many times the replaceability grid has been built in this process.

    A testing/profiling hook: take a snapshot before an operation and assert
    the delta afterwards (see ``tests/test_search.py``).  Cached reuse via
    :func:`compute_stronger_masks` / :func:`compute_diagram` on the same
    interned problem does not increment the count.
    """
    return _builds


def _count_build() -> None:
    global _builds
    with _build_lock:
        _builds += 1


def _node_replaceable(interned: InternedProblem, weak: int, strong: int) -> bool:
    """Node side of replaceability: swap one ``weak`` for ``strong`` everywhere."""
    config_set = interned.node_config_set
    configs = interned.node_configs
    for config_index in interned.configs_with_label(weak):
        config = configs[config_index]
        swapped = list(config)
        swapped.remove(weak)
        swapped.append(strong)
        swapped.sort()
        if tuple(swapped) not in config_set:
            return False
    return True


def _replaceable_indices(interned: InternedProblem, weak: int, strong: int) -> bool:
    # Edge side: every partner of `weak` must also be a partner of `strong`
    # (the self-pair {weak, weak} asks for {strong, weak}, which the
    # adjacency-mask subset test covers).
    adjacency = interned.adjacency
    if adjacency[weak] & ~adjacency[strong]:
        return False
    return _node_replaceable(interned, weak, strong)


def replaceable(problem: Problem, weak: Label, strong: Label) -> bool:
    """True iff ``strong`` may replace ``weak`` in every allowed configuration.

    Checked exhaustively: for each edge configuration containing ``weak``,
    the configuration with one ``weak`` swapped for ``strong`` must be
    allowed; likewise for node configurations.
    """
    interned = intern(problem)
    index = interned.alphabet.index
    return _replaceable_indices(interned, index[weak], index[strong])


@dataclass(frozen=True)
class Diagram:
    """The full strength relation of a problem's labels.

    ``stronger[a]`` is the set of labels that can replace ``a`` everywhere
    (always contains ``a`` itself).  The relation is a preorder; labels with
    ``a <= b`` and ``b <= a`` are *equivalent* and can be merged without
    changing the problem's solvability.
    """

    problem: Problem
    stronger: dict[Label, frozenset[Label]]

    def leq(self, weak: Label, strong: Label) -> bool:
        return strong in self.stronger[weak]

    def equivalent(self, a: Label, b: Label) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def maximal_labels(self) -> frozenset[Label]:
        """Labels not strictly dominated by any other label."""
        return frozenset(
            a
            for a in self.problem.labels
            if not any(
                self.leq(a, b) and not self.leq(b, a)
                for b in self.problem.labels
                if b != a
            )
        )

    def edges(self) -> list[tuple[Label, Label]]:
        """The Hasse-style cover list (without reflexive pairs), sorted."""
        pairs = []
        for weak in sorted(self.problem.labels):
            for strong in sorted(self.stronger[weak]):
                if strong != weak:
                    pairs.append((weak, strong))
        return pairs


def compute_stronger_masks(interned: InternedProblem) -> tuple[int, ...]:
    """The strength preorder as masks: ``masks[i]`` = labels replacing ``i``.

    This is the mask-native surface the move generator consumes directly
    (``stronger`` bit ``j`` of entry ``i`` means label ``j`` may replace
    label ``i`` everywhere; bit ``i`` itself is always set).  The grid is
    computed once per interned problem and cached on the instance, so every
    consumer of the same problem -- move generation across a whole search
    branch, :func:`compute_diagram`, equivalence merging -- shares one
    construction.

    The adjacency-mask subset test screens each ordered pair before the node
    scan touches any configuration, and the node scan only visits the
    configurations actually containing the weak label (the interned inverted
    index), so large antichain alphabets -- where almost every pair fails on
    the edge side -- cost one mask operation per pair.
    """
    cached = interned._stronger_masks
    if cached is not None:
        return cached
    _count_build()
    size = interned.alphabet.size
    masks = []
    for weak in range(size):
        mask = 1 << weak
        for strong in range(size):
            if strong != weak and _replaceable_indices(interned, weak, strong):
                mask |= 1 << strong
        masks.append(mask)
    interned._stronger_masks = tuple(masks)
    return interned._stronger_masks


def compute_diagram(problem: Problem) -> Diagram:
    """Compute the strength preorder by exhaustive replaceability checks.

    A string-surface view over :func:`compute_stronger_masks`; repeated
    calls on the same problem instance reuse the cached mask grid.
    """
    interned = intern(problem)
    masks = compute_stronger_masks(interned)
    names = interned.alphabet.names
    stronger: dict[Label, frozenset[Label]] = {
        names[weak]: frozenset(names[strong] for strong in iter_bits(mask))
        for weak, mask in enumerate(masks)
    }
    return Diagram(problem=problem, stronger=stronger)
