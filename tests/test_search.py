"""Tests for the automated lower-bound search (repro.search)."""

import json

import pytest

from repro.core.certificate import LowerBoundCertificate
from repro.core.relaxation import is_relaxation_map
from repro.engine import Engine, EngineConfig
from repro.problems.catalog import get_problem
from repro.search import generate_moves, search_lower_bound
from repro.search.driver import KIND_CHAIN, KIND_FIXED_POINT, KIND_TRIVIAL


@pytest.fixture()
def engine():
    return Engine(
        EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    )


# -- move generation -----------------------------------------------------------


def test_moves_are_certified_relaxations(engine, mis_d3):
    derived = engine.speedup(mis_d3).full
    moves = generate_moves(derived, max_moves=16)
    assert moves
    for move in moves:
        assert move.source == derived
        assert is_relaxation_map(derived, move.target, move.mapping)
        assert move.certificate().mapping == move.mapping


def test_moves_are_deduplicated_and_capped(engine, mis_d3):
    from repro.core.canonical import canonical_hash

    derived = engine.speedup(mis_d3).full
    moves = generate_moves(derived, max_moves=5)
    assert len(moves) <= 5
    keys = [canonical_hash(move.target) for move in moves]
    assert len(set(keys)) == len(keys)
    assert canonical_hash(derived) not in keys


def test_drop_move_keeps_only_dominated_free_configs():
    from repro.core.problem import Problem

    # b dominates a: anywhere a is allowed, swapping in b stays allowed.
    dominated = Problem.make(
        "dominated",
        2,
        edge_configs=[("a", "b"), ("b", "b")],
        node_configs=[("a", "b"), ("b", "b")],
    )
    drops = [m for m in generate_moves(dominated, max_moves=64) if m.kind == "drop"]
    assert drops
    for move in drops:
        assert len(move.target.labels) == len(dominated.labels) - 1
        assert move.target.edge_constraint <= dominated.edge_constraint
        assert move.target.node_constraint <= dominated.node_constraint
    # The least-relaxing drop comes before generic merges of the same pair.
    assert [m.kind for m in generate_moves(dominated, max_moves=2)][0] == "drop"


def test_generate_moves_zero_cap():
    assert generate_moves(get_problem("mis", 3), max_moves=0) == []


def test_addarrow_moves_are_identity_certified_supersets(engine, mis_d3):
    from repro.search.moves import ADDARROW

    derived = engine.speedup(mis_d3).full
    arrows = [
        m for m in generate_moves(derived, max_moves=64) if m.kind == ADDARROW
    ]
    assert arrows
    for move in arrows:
        assert move.mapping == {label: label for label in derived.labels}
        assert move.target.labels == derived.labels
        assert move.target.edge_constraint >= derived.edge_constraint
        assert move.target.node_constraint >= derived.node_constraint
        assert move.target.description_size > derived.description_size


def test_addarrow_then_drop_equals_merge():
    """The RE identity: addarrow(a,b) followed by drop(a) is the generic merge."""
    from repro.core.problem import Problem
    from repro.search.moves import ADDARROW, DROP, MERGE

    problem = Problem.make(
        "pair", 2, edge_configs=[("a", "b")], node_configs=[("a", "a"), ("b", "b")]
    )
    moves = generate_moves(problem, max_moves=64)
    arrow = next(m for m in moves if m.kind == ADDARROW and m.detail == "a~>b")
    merge = next(m for m in moves if m.kind == MERGE and m.mapping["a"] == "b")
    drops = [m for m in generate_moves(arrow.target, max_moves=64) if m.kind == DROP]
    composite = next(m for m in drops if "a" not in m.target.labels).target
    assert composite.labels == merge.target.labels
    assert composite.edge_constraint == merge.target.edge_constraint
    assert composite.node_constraint == merge.target.node_constraint


def test_hardenings_are_restrictions_and_never_relaxation_moves(engine, mis_d3):
    from repro.core.relaxation import HARDENS, is_harder_restriction
    from repro.search.moves import HARDEN, generate_hardenings

    derived = engine.speedup(mis_d3).full
    hardenings = generate_hardenings(derived, max_moves=8)
    relaxations = generate_moves(derived, max_moves=64)
    assert all(m.kind != HARDEN for m in relaxations)
    for move in hardenings:
        assert is_harder_restriction(derived, move.target)
        certificate = move.certificate()
        assert certificate.direction == HARDENS
        # A hardening certificate must never pass as a lower-bound step.
        from repro.core.certificate import RELAXATION, CertificateStep, LowerBoundCertificate

        chain = LowerBoundCertificate(
            initial=derived,
            steps=(
                CertificateStep(
                    kind=RELAXATION, problem=move.target, relaxation=certificate
                ),
            ),
        )
        check = chain.verify()
        assert not check.valid
        assert any("cannot justify" in failure for failure in check.failures)


# -- diagram sharing (regression: one replaceability grid per problem) ----------


def test_move_generation_builds_one_diagram():
    from repro.core.diagram import compute_diagram, diagram_build_count
    from repro.search.moves import generate_hardenings

    # A fresh instance: the grid cache lives on the interned problem, so a
    # shared fixture could arrive pre-warmed.
    problem = get_problem("mis", 3)
    before = diagram_build_count()
    moves = generate_moves(problem, max_moves=64)
    assert moves
    generate_hardenings(problem, max_moves=8)
    compute_diagram(problem)  # consumers beyond the generator share it too
    assert diagram_build_count() - before == 1


@pytest.mark.slow
def test_weak3_pi1_moves_stay_condensed():
    """On the 976-label weak-3-coloring[2] Pi_1 (~373k edge pairs), the 24
    relaxation moves keep every edge constraint as adjacency rows: neither
    the source nor any target ever builds its string pairs, not even when
    every move's map is checked again across the two alphabets."""
    from repro.core.problem import EdgeRelation
    from repro.core.relaxation import is_relaxation_map
    from repro.core.speedup import compute_speedup

    full = compute_speedup(get_problem("weak-3-coloring", 2)).full
    assert len(full.labels) == 976
    moves = generate_moves(full, max_moves=24)
    assert len(moves) == 24
    for move in moves:
        assert isinstance(move.target.edge_constraint, EdgeRelation), move.describe()
        assert is_relaxation_map(full, move.target, move.mapping), move.describe()
    assert full.edge_constraint._pairs is None
    assert all(move.target.edge_constraint._pairs is None for move in moves)


def test_search_builds_at_most_one_diagram_per_expansion(mis_d3):
    from repro.core.diagram import diagram_build_count

    engine = Engine(
        EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    )
    before = diagram_build_count()
    result = engine.search_lower_bound(
        mis_d3, max_steps=2, beam_width=2, max_moves=6, budget=16
    )
    builds = diagram_build_count() - before
    successful_expansions = result.stats.speedup_calls - result.stats.limit_hits
    assert builds <= successful_expansions


# -- fixed-point discovery -----------------------------------------------------


def test_search_finds_sinkless_coloring_fixed_point(engine, sc3):
    result = engine.search_lower_bound(sc3, max_steps=4)
    assert result.kind == KIND_FIXED_POINT
    assert result.unbounded
    certificate = result.certificate
    assert certificate is not None
    assert certificate.fixed_point_of == 0
    assert certificate.speedup_steps == 1
    assert certificate.verify().valid


def test_search_finds_sinkless_orientation_fixed_point(engine, so3):
    """The acceptance criterion: `python -m repro search sinkless_orientation`.

    The chain runs through sinkless coloring (the Section 4.4 pair) and the
    certificate must re-verify from its JSON serialization alone.
    """
    result = engine.search_lower_bound(so3, max_steps=4)
    assert result.kind == KIND_FIXED_POINT
    certificate = result.certificate
    assert certificate is not None
    assert certificate.fixed_point_of == 1
    assert certificate.speedup_steps == 2

    payload = json.dumps(result.to_dict(), sort_keys=True)
    rebuilt = LowerBoundCertificate.from_dict(
        json.loads(payload)["certificate"]
    )
    verdict = rebuilt.verify()
    assert verdict.valid
    assert verdict.unbounded


def test_search_is_deterministic(engine, so3):
    first = engine.search_lower_bound(so3, max_steps=4)
    second = Engine(engine.config).search_lower_bound(so3, max_steps=4)
    assert first.kind == second.kind
    assert first.bound == second.bound
    assert first.certificate.to_dict() == second.certificate.to_dict()


# -- trivial and chain outcomes ------------------------------------------------


def test_search_trivial_problem_yields_no_certificate(engine):
    from repro.core.problem import Problem
    from repro.utils.multiset import multisets_of_size

    trivial = Problem.make(
        "trivial",
        3,
        [("a", "a")],
        list(multisets_of_size(["a"], 3)),
        labels=["a"],
    )
    result = engine.search_lower_bound(trivial, max_steps=3)
    assert result.kind == KIND_TRIVIAL
    assert result.certificate is None
    assert result.bound is None
    assert "no lower bound" in result.summary()


def test_search_chain_certificate_on_mis(engine, mis_d3):
    result = engine.search_lower_bound(
        mis_d3, max_steps=2, beam_width=2, max_moves=6, budget=16
    )
    assert result.kind == KIND_CHAIN
    certificate = result.certificate
    assert certificate is not None
    assert certificate.claimed_bound >= 1
    assert not certificate.unbounded
    assert certificate.verify().valid
    # The chain alternates correctly: it applies to mis and every problem in
    # it survived the 0-round pruning.
    assert certificate.initial == mis_d3


def test_search_respects_budget(engine, mis_d3):
    result = engine.search_lower_bound(
        mis_d3, max_steps=5, beam_width=4, max_moves=4, budget=1
    )
    assert result.stats.speedup_calls == 1
    assert result.certificate is not None
    assert result.certificate.claimed_bound <= 1


def test_search_survives_size_limits(mis_d3):
    # An engine whose guards trip immediately: the root expansion fails, the
    # search degrades to the depth-0 chain (still a valid "not 0-round
    # solvable" certificate) instead of crashing.
    tight = Engine(EngineConfig(max_candidate_configs=1))
    result = tight.search_lower_bound(mis_d3, max_steps=3)
    assert result.kind == KIND_CHAIN
    assert result.stats.limit_hits == 1
    assert result.certificate is not None
    assert result.certificate.claimed_bound == 0
    assert result.certificate.verify().valid


def test_search_validates_knobs(engine, mis_d3):
    with pytest.raises(ValueError):
        engine.search_lower_bound(mis_d3, max_steps=0)
    with pytest.raises(ValueError):
        engine.search_lower_bound(mis_d3, beam_width=0)
    with pytest.raises(ValueError):
        engine.search_lower_bound(mis_d3, budget=0)


def test_module_level_search_uses_default_engine(so3):
    result = search_lower_bound(so3, max_steps=4)
    assert result.kind == KIND_FIXED_POINT


def test_search_result_json_payload(engine, so3):
    payload = engine.search_lower_bound(so3, max_steps=4).to_dict()
    assert payload["kind"] == "fixed-point"
    assert payload["unbounded"] is True
    assert payload["bound"] == 2
    assert payload["stats"]["speedup_calls"] >= 2
    # Round-trips through plain JSON.
    assert json.loads(json.dumps(payload)) == payload


def test_fixed_point_after_relaxation_uses_chain_positions(monkeypatch, so3):
    """Regression: a relaxation earlier in the chain must not skew the
    fixed-point position (certificate chain positions count *every* problem,
    including the derived intermediate the relaxation was applied to)."""
    from itertools import product

    import repro.search.driver as driver_module
    from repro.core.canonical import canonical_hash
    from repro.core.problem import Problem
    from repro.core.speedup import EngineLimitError
    from repro.search.moves import RelaxationMove

    real = Engine()
    derived1 = real.speedup(so3).full  # isomorphic to sinkless coloring
    a, b = sorted(derived1.labels)
    # A redundant-label relaxation target: b gets an equivalent twin b2, so
    # the target is NOT isomorphic to derived1 but speeds up back to it.
    twin = "twin"
    target = Problem.make(
        "redundant",
        derived1.delta,
        edge_configs=[
            pair
            for x, y in derived1.edge_constraint
            for pair in {
                (x, y),
                (twin if x == b else x, y),
                (x, twin if y == b else y),
                (twin if x == b else x, twin if y == b else y),
            }
        ],
        node_configs={
            tuple(choice)
            for config in derived1.node_constraint
            for choice in product(
                *[[label, twin] if label == b else [label] for label in config]
            )
        },
        labels=sorted(derived1.labels) + [twin],
    )
    move = RelaxationMove(
        kind="merge",
        source=derived1,
        target=target,
        mapping={label: label for label in derived1.labels},
    )
    assert canonical_hash(target) != canonical_hash(derived1)

    derived1_key = canonical_hash(derived1)

    def scripted_moves(problem, max_moves=24):
        if canonical_hash(problem) == derived1_key:
            return [move]
        return []

    class ScriptedEngine(Engine):
        def speedup(self, problem, simplify=None):
            # Kill the un-relaxed branch so the search must go through the
            # relaxation before it can close the cycle.
            if (
                canonical_hash(problem) == derived1_key
                and len(problem.labels) == len(derived1.labels)
            ):
                raise EngineLimitError("scripted dead end")
            return super().speedup(problem, simplify=simplify)

    monkeypatch.setattr(driver_module, "generate_moves", scripted_moves)
    # Serial executor: the scripted monkeypatch and the ScriptedEngine
    # override live in this process only, so beam expansion must not be
    # shipped to pool workers (which would run the real generate_moves).
    scripted = ScriptedEngine(EngineConfig(executor="serial"))
    result = scripted.search_lower_bound(so3, max_steps=4, beam_width=4)

    assert result.kind == KIND_FIXED_POINT
    certificate = result.certificate
    assert certificate is not None
    # Chain: so3 -> derived1 -> target -> speedup(target) ~ derived1.
    kinds = [step.kind for step in certificate.steps]
    assert kinds == ["speedup", "relaxation", "speedup"]
    assert certificate.fixed_point_of == 1
    assert certificate.verify().valid


# -- search stress (separate CI job) ------------------------------------------


@pytest.mark.slow
def test_weak3_search_expands_two_levels_within_budget():
    """The ISSUE-5 acceptance case: weak-3[d=2] (976-label Pi_1).

    Before the mask-native move generator, the closed-set enumeration abort,
    and the delta-2 0-round fast path, this search died in string-surface
    move generation (no result within 600s).  Now it must expand two search
    levels (the root at depth 1, its surviving relaxations at depth 2) and
    return an independently verified certificate within the 5-minute CI
    budget.
    """
    import time

    engine = Engine(
        EngineConfig(max_derived_labels=20_000, max_candidate_configs=500_000)
    )
    problem = get_problem("weak-3-coloring", 2)
    start = time.monotonic()
    result = engine.search_lower_bound(problem, max_steps=2)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    # Depth 1 expands exactly the root, so any further expansion proves the
    # search entered level 2 with surviving candidates.
    assert result.stats.states_expanded >= 2
    assert result.kind == KIND_CHAIN
    certificate = result.certificate
    assert certificate is not None
    assert certificate.claimed_bound >= 1
    assert certificate.verify().valid


@pytest.mark.slow
@pytest.mark.parametrize(
    "name",
    ["sinkless-coloring", "sinkless-orientation", "mis", "maximal-matching",
     "perfect-matching", "3-edge-coloring", "weak-2-coloring"],
)
def test_search_catalog_stress(name):
    """Every discovered certificate must re-verify, across the cheap catalog."""
    engine = Engine(
        EngineConfig(max_derived_labels=2_000, max_candidate_configs=50_000)
    )
    problem = get_problem(name, 3)
    result = engine.search_lower_bound(
        problem, max_steps=3, beam_width=3, max_moves=8, budget=32
    )
    if result.certificate is not None:
        assert result.certificate.verify().valid
