"""Tests for the label strength diagram."""

from repro.core.diagram import compute_diagram, replaceable
from repro.core.problem import Problem
from repro.core.relaxation import is_relaxation_map
from repro.core.speedup import speedup
from repro.problems.sinkless import sinkless_coloring, sinkless_orientation
from repro.search.moves import MERGE_EQUIVALENTS, generate_moves


def merge_equivalents_moves(problem):
    """The move generator's equivalence-class collapse (at most one move)."""
    return [move for move in generate_moves(problem) if move.kind == MERGE_EQUIVALENTS]


def test_replaceable_in_sinkless_orientation(so3):
    # In sinkless orientation, 1 ("outgoing") can replace 0 at a node (more
    # outgoing edges never hurt the node constraint) but not on an edge
    # (an edge needs exactly one 1), so 0 is NOT replaceable by 1 overall.
    assert not replaceable(so3, "0", "1")
    assert not replaceable(so3, "1", "0")


def test_diagram_reflexive(sc3):
    diagram = compute_diagram(sc3)
    for label in sc3.labels:
        assert diagram.leq(label, label)


def test_diagram_of_trivial_problem_is_full():
    problem = Problem.make(
        "free", 2, [("a", "a"), ("a", "b"), ("b", "b")], [("a", "a"), ("a", "b"), ("b", "b")]
    )
    diagram = compute_diagram(problem)
    assert diagram.equivalent("a", "b")
    assert diagram.stronger == {"a": {"a", "b"}, "b": {"a", "b"}}


def test_merge_equivalents_shrinks_free_problem():
    problem = Problem.make(
        "free", 2, [("a", "a"), ("a", "b"), ("b", "b")], [("a", "a"), ("a", "b"), ("b", "b")]
    )
    (move,) = merge_equivalents_moves(problem)
    assert move.target.labels == {"a"}
    assert move.mapping == {"a": "a", "b": "a"}
    assert is_relaxation_map(problem, move.target, move.mapping)
    assert is_relaxation_map(move.target, problem, {"a": "a"})


def test_merge_keeps_distinct_labels(sc3):
    # 0 and 1 play different roles, so there is nothing to collapse.
    assert not compute_diagram(sc3).equivalent("0", "1")
    assert merge_equivalents_moves(sc3) == []


def test_diagram_maximal_labels():
    # A problem where 'b' strictly dominates 'a'.
    problem = Problem.make(
        "dominated",
        2,
        [("a", "b"), ("b", "b")],
        [("a", "b"), ("b", "b")],
    )
    diagram = compute_diagram(problem)
    assert diagram.leq("a", "b")
    assert not diagram.leq("b", "a")
    assert diagram.maximal_labels() == frozenset({"b"})
    assert ("a", "b") in diagram.edges()


def test_merged_problem_same_zero_round_status():
    """Merging equivalent labels never changes 0-round solvability."""
    from repro.core.zero_round import is_zero_round_solvable

    problem = Problem.make(
        "free", 2, [("a", "a"), ("a", "b"), ("b", "b")], [("a", "a"), ("a", "b"), ("b", "b")]
    )
    (move,) = merge_equivalents_moves(problem)
    assert is_zero_round_solvable(move.target) == is_zero_round_solvable(problem)


def test_diagram_on_derived_problem_runs(sc3):
    """The diagram of a derived problem is computable and reflexive."""
    derived = speedup(sc3).full
    diagram = compute_diagram(derived)
    for label in derived.labels:
        assert diagram.leq(label, label)
    # Note: meaning-inclusion does NOT imply strength here -- the node side
    # of a derived problem is universal, so larger sets are harder there.
