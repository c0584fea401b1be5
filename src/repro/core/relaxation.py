"""Relaxations between problems, certified by label maps.

Section 2.1 describes the simplification strategy that makes iterated
round elimination tractable: after each speedup step, replace the derived
problem by a *relaxation* -- a problem provably no harder -- with a much
simpler description.  The basic certified relaxation is a label map: if a
(not necessarily injective) function ``m`` from the labels of ``P`` to the
labels of ``Q`` sends every allowed edge configuration of ``P`` to an
allowed edge configuration of ``Q`` and likewise for node configurations,
then any algorithm solving ``P`` solves ``Q`` in the same time by
post-composing the map; hence ``Q`` is a relaxation of ``P``.

The same machinery run in the opposite direction certifies the *hardening*
used for upper bounds (Section 4.5): restricting the derived problem's labels
yields a problem at least as hard whose solutions still solve the original.

Both the map checker and the map search run on the interned index view
(:mod:`repro.core.alphabet`): label maps become index arrays, edges are
adjacency rows (one label mask per label, never index pairs), configuration
images are sorted index tuples checked against the target's interned
constraint sets, and the backtracking search validates only the constraints
completed by each new assignment instead of rescanning everything.  One
row-level image check, :func:`check_row_image`, serves both certificate
verification and the move generator's soundness gate.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.alphabet import Direction, intern, iter_bits
from repro.core.problem import UNMAPPED, Label, Problem, row_images

# The two certified directions: a *relaxation* target is provably no harder
# than its source (the lower-bound chain step); a *hardening* target is
# provably at least as hard (the Section 4.5 upper-bound maneuver).  Typed
# as the closed :data:`repro.core.alphabet.Direction` literal so a stray
# direction string is a type error, not just a runtime ValueError.
RELAXES: Direction = "relaxation"
HARDENS: Direction = "hardening"


@dataclass(frozen=True)
class RelaxationCertificate:
    """A verified witness relating ``target`` to ``source`` by a label map.

    ``direction`` is :data:`RELAXES` (the map sends every allowed source
    configuration into an allowed target configuration, so ``target`` is no
    harder) or :data:`HARDENS` (the map is the inclusion of a restriction,
    so ``target`` is at least as hard and its solutions solve ``source``
    verbatim).  Lower-bound chains only accept :data:`RELAXES` steps;
    hardenings serve the upper-bound direction.
    """

    source_name: str
    target_name: str
    mapping: dict[Label, Label]
    direction: Direction = RELAXES

    def __post_init__(self) -> None:
        if self.direction not in (RELAXES, HARDENS):
            raise ValueError(f"unknown certificate direction {self.direction!r}")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "source_name": self.source_name,
            "target_name": self.target_name,
            "mapping": dict(sorted(self.mapping.items())),
            "direction": self.direction,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RelaxationCertificate":
        return RelaxationCertificate(
            source_name=data["source_name"],
            target_name=data["target_name"],
            mapping=dict(data["mapping"]),
            # Pre-direction payloads (schema version 1) are all relaxations.
            direction=data.get("direction", RELAXES),
        )

    def describe(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(self.mapping.items()))
        verb = "relaxes" if self.direction == RELAXES else "hardens"
        return (
            f"{self.target_name} {verb} {self.source_name} via {{{pairs}}}"
        )


def check_row_image(
    image: Sequence[int],
    source_rows: Sequence[int],
    source_node_configs: Iterable[tuple[int, ...]],
    target_rows: Sequence[int],
    target_node_configs: Collection[tuple[int, ...]],
) -> bool:
    """The image check of :func:`is_relaxation_map` and of the move
    generator's soundness gate: does ``image`` map the source constraints
    into the target's?

    ``image[i]`` is the target index of source label ``i`` (``UNMAPPED``
    for unmapped labels).  For each mapped source label ``i``, the image of
    its adjacency row must lie inside ``target_rows[image[i]]``, and every
    node configuration's image must be in ``target_node_configs``.  Pairs
    and configurations touching an unmapped (hence unusable) label never
    occur in a correct solution and are skipped.
    """
    for index, mapped in enumerate(row_images(image, source_rows)):
        target_label = image[index]
        if target_label != UNMAPPED and mapped & ~target_rows[target_label]:
            return False
    for config in source_node_configs:
        # UNMAPPED sorts first, so one test finds a skipped configuration.
        mapped_config = tuple(sorted([image[label_index] for label_index in config]))
        if mapped_config[0] != UNMAPPED and mapped_config not in target_node_configs:
            return False
    return True


def is_relaxation_map(
    source: Problem, target: Problem, mapping: Mapping[Label, Label]
) -> bool:
    """Check that ``mapping`` certifies ``target`` as a relaxation of ``source``.

    Every usable label of ``source`` must be mapped -- and nothing else: a
    map mentioning labels outside ``source``'s alphabet is rejected outright
    (no honest producer emits one, and certificate verification must not
    accept padded maps).  Every allowed edge and node configuration of
    ``source`` must map into the corresponding allowed set of ``target``.
    Configurations mentioning unmapped (hence unusable) labels never occur
    in a correct solution and are skipped.
    """
    if source.delta != target.delta:
        return False
    if not source.usable_labels <= set(mapping) <= source.labels:
        return False
    if not set(mapping.values()) <= target.labels:
        return False

    left = intern(source)
    right = intern(target)
    target_index = right.alphabet.index
    image = [
        target_index[mapping[name]] if name in mapping else UNMAPPED
        for name in left.alphabet.names
    ]
    return check_row_image(
        image,
        left.adjacency,
        left.node_configs,
        right.adjacency,
        right.node_config_set,
    )


def is_isomorphism_map(
    source: Problem, target: Problem, mapping: Mapping[Label, Label]
) -> bool:
    """Check that ``mapping`` is a label bijection sending both constraints of
    ``source`` exactly onto ``target``'s.

    A bijection maps distinct configurations to distinct ones, so once every
    image lies in ``target``'s constraints (:func:`is_relaxation_map`), equal
    constraint sizes make the images all of them.  The check shares no code
    with the canonical labelling that finds such maps.
    """
    return (
        set(mapping) == source.labels
        and set(mapping.values()) == target.labels
        and len(source.labels) == len(target.labels)
        and len(source.edge_constraint) == len(target.edge_constraint)
        and len(source.node_constraint) == len(target.node_constraint)
        and is_relaxation_map(source, target, mapping)
    )


def certify_relaxation(
    source: Problem, target: Problem, mapping: Mapping[Label, Label]
) -> RelaxationCertificate:
    """Validate ``mapping`` and wrap it in a certificate; raise on failure."""
    if not is_relaxation_map(source, target, mapping):
        raise ValueError(
            f"map does not certify {target.name} as a relaxation of {source.name}"
        )
    return RelaxationCertificate(
        source_name=source.name, target_name=target.name, mapping=dict(mapping)
    )


def find_relaxation_map(
    source: Problem, target: Problem
) -> dict[Label, Label] | None:
    """Search for a certifying label map, or return None.

    Backtracking over assignments of the usable labels of ``source`` (most
    used in constraints first, ties by name), checking each constraint as
    soon as its last label is assigned.  Non-injective maps are allowed --
    collapsing labels is the typical way a relaxation simplifies a problem.
    """
    if source.delta != target.delta:
        return None

    left = intern(source)
    right = intern(target)
    source_names = left.alphabet.names
    source_index = left.alphabet.index
    usable = [source_index[name] for name in sorted(source.usable_labels)]
    node_use = [0] * left.alphabet.size
    for config in left.node_configs:
        for label_index in config:
            node_use[label_index] += 1
    # Stable sort over the name-ordered list: ties break by name.
    usable.sort(key=lambda i: -node_use[i])

    # position_of[i]: when (in assignment order) source index i gets bound.
    position_of = {label_index: k for k, label_index in enumerate(usable)}
    # Constraints become checkable exactly when their last label is bound.
    edge_checks: list[list[tuple[int, int]]] = [[] for _ in usable]
    node_checks: list[list[tuple[int, ...]]] = [[] for _ in usable]
    for a, row in enumerate(left.adjacency):
        if a not in position_of:
            continue
        for b in iter_bits(row >> a << a):
            if b in position_of:
                edge_checks[max(position_of[a], position_of[b])].append((a, b))
    for config in left.node_configs:
        positions = [position_of.get(label_index) for label_index in set(config)]
        if all(p is not None for p in positions):
            node_checks[max(positions)].append(config)

    right_rows = right.adjacency
    right_configs = right.node_config_set
    target_count = right.alphabet.size
    image = [UNMAPPED] * left.alphabet.size

    def consistent(position: int) -> bool:
        for a, b in edge_checks[position]:
            if not right_rows[image[a]] >> image[b] & 1:
                return False
        for config in node_checks[position]:
            mapped = tuple(sorted(image[label_index] for label_index in config))
            if mapped not in right_configs:
                return False
        return True

    def backtrack(position: int) -> bool:
        if position == len(usable):
            return True
        label_index = usable[position]
        for candidate in range(target_count):
            image[label_index] = candidate
            if consistent(position) and backtrack(position + 1):
                return True
        image[label_index] = UNMAPPED
        return False

    if backtrack(0):
        right_names = right.alphabet.names
        return {
            source_names[label_index]: right_names[image[label_index]]
            for label_index in usable
        }
    return None


def is_harder_restriction(source: Problem, restricted: Problem) -> bool:
    """Check the dual (upper-bound) direction: ``restricted`` embeds in ``source``.

    True iff ``restricted``'s labels are a subset of ``source``'s and its
    constraints are subsets of the corresponding ``source`` constraints; then
    every solution of ``restricted`` is verbatim a solution of ``source``.
    This certifies the Section 4.5 maneuver of making a derived problem
    harder to obtain a clean upper-bound problem.  The constraint inclusion
    is the row image check under the identity-by-name map.
    """
    if restricted.delta != source.delta or not restricted.labels <= source.labels:
        return False
    inner = intern(restricted)
    outer = intern(source)
    source_index = outer.alphabet.index
    return check_row_image(
        [source_index[name] for name in inner.alphabet.names],
        inner.adjacency,
        inner.node_configs,
        outer.adjacency,
        outer.node_config_set,
    )
