"""Tests for relaxation certificates and map search."""

import random

import pytest
from test_differential_kernel import SEED_COUNT, random_problem

from repro.core.relaxation import (
    HARDENS,
    RELAXES,
    RelaxationCertificate,
    certify_relaxation,
    find_relaxation_map,
    is_harder_restriction,
    is_relaxation_map,
)
from repro.problems.coloring import coloring
from repro.search.moves import generate_hardenings, generate_moves
from repro.problems.superweak import superweak, weak2_to_superweak2_map
from repro.problems.weak_coloring import weak_coloring_pointer


def test_identity_is_relaxation(sc3):
    identity = {label: label for label in sc3.labels}
    assert is_relaxation_map(sc3, sc3, identity)


def test_weak2_relaxes_to_superweak2():
    """The paper's Section 5 relaxation, certified by an explicit map."""
    for delta in (3, 4, 5):
        weak = weak_coloring_pointer(2, delta)
        sweak = superweak(2, delta)
        mapping = weak2_to_superweak2_map(delta)
        assert is_relaxation_map(weak, sweak, mapping)


def test_coloring_relaxes_to_more_colors():
    mapping = {"c1": "c1", "c2": "c2", "c3": "c3"}
    assert is_relaxation_map(coloring(3, 2), coloring(4, 2), mapping)


def test_collapsing_colors_is_not_a_relaxation():
    mapping = {"c1": "c1", "c2": "c2", "c3": "c1"}
    assert not is_relaxation_map(coloring(3, 2), coloring(3, 2), mapping)


def test_certify_raises_on_bad_map(sc3, col3_ring):
    with pytest.raises(ValueError):
        certify_relaxation(sc3, col3_ring, {"0": "c1", "1": "c1"})


def test_certificate_describe(sc3):
    identity = {label: label for label in sc3.labels}
    cert = certify_relaxation(sc3, sc3, identity)
    assert "relaxes" in cert.describe()


def test_find_relaxation_map_finds_color_embedding():
    mapping = find_relaxation_map(coloring(3, 2), coloring(5, 2))
    assert mapping is not None
    assert is_relaxation_map(coloring(3, 2), coloring(5, 2), mapping)


def test_find_relaxation_map_none_for_fewer_colors():
    # 4-coloring cannot relax to 3-coloring: any map collapses two colors.
    assert find_relaxation_map(coloring(4, 2), coloring(3, 2)) is None


def test_find_relaxation_map_respects_delta(sc3):
    from repro.problems.sinkless import sinkless_coloring

    assert find_relaxation_map(sc3, sinkless_coloring(4)) is None


def test_harder_restriction(col4_ring):
    restricted = col4_ring.restricted({"c1", "c2", "c3"})
    assert is_harder_restriction(col4_ring, restricted)
    assert not is_harder_restriction(restricted, col4_ring)


def test_relaxation_ignores_unusable_labels():
    """Configurations over labels that can never occur need no image."""
    from repro.core.problem import Problem

    source = Problem.make(
        "p", 2, [("a", "a"), ("z", "z")], [("a", "a")], labels=["a", "z"]
    )
    target = Problem.make("q", 2, [("x", "x")], [("x", "x")], labels=["x"])
    # z is unusable (no node config); mapping only a suffices.
    assert is_relaxation_map(source, target, {"a": "x"})


def test_relaxation_map_rejects_spurious_keys(sc3):
    """Padded maps fail: no honest producer maps labels outside the source."""
    identity = {label: label for label in sc3.labels}
    assert is_relaxation_map(sc3, sc3, identity)
    assert not is_relaxation_map(sc3, sc3, {**identity, "ghost": "0"})


# -- direction-tagged certificates (schema v2) ---------------------------------


def test_certificate_direction_defaults_and_roundtrips(sc3):
    identity = {label: label for label in sc3.labels}
    certificate = certify_relaxation(sc3, sc3, identity)
    assert certificate.direction == RELAXES
    payload = certificate.to_dict()
    assert payload["direction"] == RELAXES
    assert RelaxationCertificate.from_dict(payload) == certificate
    # Pre-direction payloads (schema version 1) read back as relaxations.
    legacy_payload = {k: v for k, v in payload.items() if k != "direction"}
    assert RelaxationCertificate.from_dict(legacy_payload) == certificate


def test_certificate_rejects_unknown_direction(sc3):
    with pytest.raises(ValueError):
        RelaxationCertificate(
            source_name="a", target_name="b", mapping={}, direction="sideways"
        )


def test_hardening_certificate(col4_ring):
    restricted = col4_ring.restricted({"c1", "c2", "c3"}, name="col3")
    assert is_harder_restriction(col4_ring, restricted)
    assert not is_harder_restriction(restricted, col4_ring)  # wrong way around
    certificate = RelaxationCertificate(
        source_name=col4_ring.name,
        target_name=restricted.name,
        mapping={label: label for label in restricted.labels},
        direction=HARDENS,
    )
    assert "hardens" in certificate.describe()
    payload = certificate.to_dict()
    assert RelaxationCertificate.from_dict(payload) == certificate


# -- the row-level image check against a string-level oracle --------------------


def string_relaxation_oracle(source, target, mapping):
    """``is_relaxation_map``'s definition, on string pairs and tuples only."""
    edges = frozenset(target.edge_constraint)
    usable = {label for pair in source.edge_constraint for label in pair} & {
        label for config in source.node_constraint for label in config
    }
    if source.delta != target.delta or not usable <= set(mapping) <= source.labels:
        return False
    if not set(mapping.values()) <= target.labels:
        return False
    for a, b in source.edge_constraint:
        if a in mapping and b in mapping:
            if tuple(sorted((mapping[a], mapping[b]))) not in edges:
                return False
    for config in source.node_constraint:
        if all(label in mapping for label in config):
            if tuple(sorted(mapping[label] for label in config)) not in target.node_constraint:
                return False
    return True


def test_row_check_agrees_with_a_string_oracle():
    """Every generated map (relaxations source -> target, hardening inclusions
    target -> source) and a copy with one image entry corrupted get the same
    verdict from the row check as from the string oracle."""
    rng = random.Random(0)
    verdicts = []
    for seed in range(SEED_COUNT):
        problem = random_problem(seed)
        cases = [(problem, move.target, move.mapping) for move in generate_moves(problem, 256)]
        cases += [
            (move.target, problem, move.mapping) for move in generate_hardenings(problem, 64)
        ]
        for source, target, mapping in cases:
            assert string_relaxation_oracle(source, target, mapping), (seed, mapping)
            label = rng.choice(sorted(mapping))
            others = sorted(target.labels - {mapping[label]})
            candidates = [mapping, {**mapping, label: rng.choice(others)}] if others else [mapping]
            for candidate in candidates:
                expected = string_relaxation_oracle(source, target, candidate)
                assert is_relaxation_map(source, target, candidate) == expected, (seed, candidate)
                verdicts.append(expected)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 100
