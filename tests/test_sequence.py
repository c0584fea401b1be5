"""Tests for the iterated round-elimination pipeline."""

from repro.core.sequence import run_round_elimination
from repro.core.zero_round import zero_round_with_orientations
from repro.problems.sinkless import sinkless_coloring
from repro.problems.coloring import coloring


def test_sinkless_pipeline_detects_fixed_point(sc3):
    result = run_round_elimination(sc3, max_steps=3)
    assert result.fixed_point_index == 1
    assert result.first_zero_round_index is None
    assert result.unbounded


def test_sinkless_summary_mentions_omega(sc3):
    result = run_round_elimination(sc3, max_steps=2)
    assert "Omega(log n)" in result.summary()


def test_pipeline_stops_at_fixed_point(sc3):
    result = run_round_elimination(sc3, max_steps=10)
    # One step to find the fixed point, then stop.
    assert len(result.steps) == 2


def test_pipeline_without_fixed_point_detection(sc3):
    result = run_round_elimination(
        sc3, max_steps=3, detect_fixed_points=False
    )
    assert len(result.steps) == 4
    assert result.lower_bound == 3


def test_coloring_ring_pipeline_hits_the_explosion():
    """3-coloring on rings: the derived descriptions explode doubly
    exponentially (Section 4.5/2.1), so the unrelaxed pipeline must either
    find a 0-round problem or stop at the engine's size guards -- never
    a fixed point (3-coloring takes Theta(log* n) rounds, not Omega(log n)).
    """
    # Explicit ceiling: the streaming full step would otherwise *compute*
    # the second tower step (8565 labels, ~25M edge configs, minutes of
    # wall clock) instead of refusing it from the grid prediction.
    result = run_round_elimination(coloring(3, 2), max_steps=3, max_derived_labels=2000)
    assert result.fixed_point_index is None
    assert result.first_zero_round_index is not None or result.stopped_by_limit
    assert result.lower_bound >= 1
    assert zero_round_with_orientations(coloring(3, 2)) is None


def test_relaxer_hook_is_applied_and_verified(sc3):
    from repro.core.canonical import find_isomorphism

    calls = []

    def relax_to_canonical(problem, step):
        mapping = find_isomorphism(problem.compressed(), sc3.compressed())
        assert mapping is not None
        calls.append(step)
        return sc3, mapping

    result = run_round_elimination(sc3, max_steps=2, relaxer=relax_to_canonical)
    assert calls  # the hook ran
    assert result.steps[1].relaxation is not None
    assert result.steps[1].problem == sc3


def test_relaxer_returning_none_keeps_derived(sc3):
    result = run_round_elimination(
        sc3, max_steps=1, relaxer=lambda problem, step: None
    )
    assert result.steps[1].relaxation is None


def test_zero_round_detected_at_step_zero():
    from repro.core.problem import Problem
    from repro.utils.multiset import multisets_of_size

    labels = ["a"]
    trivial = Problem.make(
        "trivial", 3, [("a", "a")], list(multisets_of_size(labels, 3)), labels=labels
    )
    result = run_round_elimination(trivial, max_steps=5)
    assert result.first_zero_round_index == 0
    assert result.lower_bound == 0
    assert len(result.steps) == 1
