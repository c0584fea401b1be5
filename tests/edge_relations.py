"""Shared checks for derived edge relations (imported by the test modules).

The full step emits a derived problem's edge constraint as an
:class:`~repro.core.problem.EdgeRelation` (one adjacency mask per label).
:func:`legacy_edge_relation` rebuilds the same relation with the string
path's predicate from the test-only oracle :mod:`_legacy`, and
:func:`assert_behaves_as` holds a relation to ``frozenset`` semantics.
"""

from __future__ import annotations

import json

import pytest

import _legacy
from repro.core.alphabet import intern
from repro.core.problem import EdgeConfig, EdgeRelation, Problem
from repro.core.speedup import SpeedupResult


def legacy_edge_relation(result: SpeedupResult) -> frozenset[EdgeConfig]:
    """The simplified ``Pi_1`` edge relation by the legacy string predicate.

    ``{W, X}`` is allowed iff the polar partner of some half label in one
    side is a member of the other (``_legacy.full_step``), evaluated over
    the derived labels' meanings instead of re-running the legacy
    enumeration, which is out of reach for the 976-label cases.
    """
    assert result.simplified
    comp = _legacy.Compatibility(result.original)
    polar_name = {
        name: _legacy.set_label_name(comp.polar(members))
        for name, members in result.half_meaning.items()
    }
    meaning = result.full_meaning
    partners = {
        label: frozenset(polar_name[half] for half in members)
        for label, members in meaning.items()
    }
    labels = sorted(meaning)
    return frozenset(
        (first, second)
        for index, first in enumerate(labels)
        for second in labels[index:]
        if not partners[first].isdisjoint(meaning[second])
        or not partners[second].isdisjoint(meaning[first])
    )


def assert_behaves_as(full: Problem, reference: frozenset[EdgeConfig]) -> None:
    """``full.edge_constraint`` is an ``EdgeRelation`` that acts as ``reference``."""
    relation = full.edge_constraint
    assert isinstance(relation, EdgeRelation)
    assert relation.names == tuple(sorted(full.labels))

    # Probe a copy whose string view stays unbuilt: len and `in` answer
    # from the masks.
    probe = EdgeRelation(relation.names, relation.masks)
    labels = list(relation.names)
    assert len(probe) == len(reference)
    for pair in reference:
        assert pair in probe
        assert (pair[::-1] in probe) == (pair[0] == pair[1])
    assert ("~", "~") not in probe and "~" not in probe
    for first in labels[:20]:
        for second in labels:
            assert ((first, second) in probe) == ((first, second) in reference)
    label = labels[0] if labels else "~"
    odd_probes = [
        (label, "no-such-label"),
        ("no-such-label", label),
        label,
        (label,),
        (label, label, label),
        7,
        None,
    ]
    for odd in odd_probes:
        assert (odd in probe) == (odd in reference)
    for unhashable in ([label, label], (label, [label])):
        with pytest.raises(TypeError):
            unhashable in reference  # noqa: B015
        with pytest.raises(TypeError):
            unhashable in probe  # noqa: B015
    assert probe._pairs is None

    assert relation == reference and reference == relation
    assert not (relation != reference) and not (reference != relation)
    assert hash(relation) == hash(reference)
    assert relation <= reference and relation >= reference
    assert reference <= relation and reference >= relation
    assert not relation < reference and not relation > reference
    assert relation <= probe and probe >= relation and probe == relation
    if reference:
        smaller = reference - {min(reference)}
        assert smaller <= relation and smaller < relation and relation > smaller
        assert not relation <= smaller
    extra = ("~", "~")
    for combined in (relation | {extra}, relation & reference, reference & relation):
        assert type(combined) is frozenset
    assert relation | {extra} == reference | {extra}
    assert relation & reference == reference
    assert sorted(relation) == sorted(reference)

    twin = Problem(full.name, full.delta, full.labels, reference, full.node_constraint)
    assert json.dumps(full.to_dict()) == json.dumps(twin.to_dict())
    assert full == twin and twin == full and hash(full) == hash(twin)
    ours, theirs = intern(full), intern(twin)
    assert ours.adjacency == theirs.adjacency
    assert ours.edge_pairs == theirs.edge_pairs
    assert ours.node_configs == theirs.node_configs
