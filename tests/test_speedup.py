"""Tests for the speedup engine: Section 4.4's worked example and generic laws."""

import pytest

from repro.core.canonical import are_isomorphic
from repro.core.relaxation import find_relaxation_map
from repro.core.speedup import (
    EngineLimitError,
    full_step,
    half_step,
    iterate_speedup,
    set_label_name,
    short_names,
    speedup,
)
from repro.problems.coloring import coloring
from repro.problems.sinkless import sinkless_coloring, sinkless_orientation


def test_set_label_name_sorted():
    assert set_label_name(["b", "a"]) == "{a,b}"


def test_short_names_unique():
    names = short_names(40)
    assert len(set(names)) == 40
    assert names[0] == "A"
    assert names[25] == "Z"


# -- Section 4.4: sinkless coloring --------------------------------------------


@pytest.mark.parametrize("delta", [3, 4, 5])
def test_sinkless_half_step_is_sinkless_orientation(delta):
    half = half_step(sinkless_coloring(delta)).problem.compressed()
    assert are_isomorphic(half, sinkless_orientation(delta).compressed())


@pytest.mark.parametrize("delta", [3, 4, 5])
def test_sinkless_full_step_is_fixed_point(delta):
    sc = sinkless_coloring(delta)
    derived = speedup(sc).full.compressed()
    assert are_isomorphic(derived, sc.compressed())


def test_sinkless_meanings_match_paper(sc3):
    """Section 4.4's label algebra: half labels are {0} and {0,1}."""
    half = half_step(sc3)
    meanings = set(half.meaning.values())
    assert meanings == {frozenset({"0"}), frozenset({"0", "1"})}


def test_iterate_speedup_returns_all_steps(sc3):
    results = iterate_speedup(sc3, 3)
    assert len(results) == 3
    for result in results:
        assert are_isomorphic(result.full.compressed(), sc3.compressed())


# -- generic engine laws ---------------------------------------------------------


def test_half_labels_are_closed_sets(col4_ring):
    from repro.core.galois import Compatibility

    comp = Compatibility(col4_ring)
    half = half_step(col4_ring)
    for meaning in half.meaning.values():
        assert comp.is_closed(meaning)
        assert meaning
        assert comp.polar(meaning)


def test_half_edge_pairs_are_polar_pairs(col4_ring):
    from repro.core.galois import Compatibility

    comp = Compatibility(col4_ring)
    half = half_step(col4_ring)
    for a, b in half.problem.edge_constraint:
        assert comp.polar(half.meaning[a]) == half.meaning[b]


def test_full_meaning_composes(sc3):
    result = speedup(sc3)
    for label in result.full.labels:
        expansion = result.full_label_as_original_sets(label)
        assert expansion
        for half_set in expansion:
            assert half_set <= sc3.labels


def test_full_node_configs_are_antichain_maximal(sc3):
    """No derived node configuration may dominate another (Property 6)."""
    result = speedup(sc3)
    configs = [
        tuple(sorted((result.full_meaning[lbl] for lbl in config), key=sorted))
        for config in result.full.node_constraint
    ]
    from repro.utils.matching import perfect_matching_exists

    def dominates(a, b):
        adjacency = {
            i: [j for j, big in enumerate(a) if small <= big]
            for i, small in enumerate(b)
        }
        return perfect_matching_exists(adjacency)

    for a in configs:
        for b in configs:
            if a != b:
                assert not (dominates(a, b) and dominates(b, a))


def test_simplified_is_relaxed_by_raw(sc3):
    """Every Pi'_1 solution is a Pi_1 solution (Theorem 2's easy half)."""
    simplified = speedup(sc3, simplify=True).full.compressed()
    raw = speedup(sc3, simplify=False).full.compressed()
    assert find_relaxation_map(simplified, raw) is not None


def test_unsimplified_half_has_all_subsets(sc3):
    half = half_step(sc3, simplify=False)
    # 2 labels -> 3 nonempty subsets before compression; compression may drop
    # unusable ones but meaning sets stay within the alphabet.
    for meaning in half.meaning.values():
        assert meaning <= sc3.labels


def test_engine_limit_guard():
    big = coloring(6, 2)
    with pytest.raises(EngineLimitError) as excinfo:
        # 6 labels -> 62 raw half labels is fine, but the raw full step over
        # 2^62 subsets must refuse.
        full_step(half_step(big, simplify=False), simplify=False)
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.observed == 2**62
    assert error.observed > error.limit


# -- bitmask kernel: naming collision guards -----------------------------------


def comma_label_problem():
    """Closed sets {a, b} and {"a,b"} force a legacy set-name collision."""
    from repro.core.problem import Problem
    from repro.utils.multiset import multisets_of_size

    labels = ["a", "b", "a,b"]
    return Problem.make(
        "comma",
        1,
        edge_configs=[("a", "a,b"), ("b", "a,b")],
        node_configs=list(multisets_of_size(labels, 1)),
        labels=labels,
    )


def test_half_step_keeps_colliding_set_names_distinct():
    """Regression: a user label containing a comma must not alias a set.

    The problem's usable closed sets are {a, b} and {"a,b"}; the legacy
    naming renders both as "{a,b}", silently collapsing the half alphabet to
    one label.  The kernel escapes the comma, keeping both meanings.
    """
    problem = comma_label_problem()
    half = half_step(problem)
    assert len(half.meaning) == 2
    assert frozenset({"a", "b"}) in half.meaning.values()
    assert frozenset({"a,b"}) in half.meaning.values()

    import _legacy

    legacy_half = _legacy.half_step(problem)
    assert len(legacy_half.meaning) == 1  # the collision being fixed


def test_speedup_equivariant_under_nasty_renaming():
    """Deriving under comma/brace labels matches the clean-label derivation."""
    problem = comma_label_problem()
    clean = problem.renamed({"a": "a", "b": "b", "a,b": "c"}, name="clean")
    nasty_result = speedup(problem).full.compressed()
    clean_result = speedup(clean).full.compressed()
    assert are_isomorphic(nasty_result, clean_result)


def test_derived_short_names_avoid_original_labels():
    """Fresh derived labels never shadow the input problem's own alphabet.

    Uses the uncached derivation: a content-addressed cache hit may translate
    a stored twin and keep that derivation's (arbitrary but consistent)
    short names.
    """
    from repro.core.speedup import compute_speedup

    sc = sinkless_coloring(3)
    renamed = sc.renamed({"0": "A", "1": "B"}, name="sc-AB")
    result = compute_speedup(renamed)
    assert result.full.labels.isdisjoint({"A", "B"})
    assert are_isomorphic(result.full.compressed(), speedup(sc).full.compressed())


# -- bitmask kernel: formerly out-of-reach derivations -------------------------


def test_kernel_unlocks_weak3_coloring():
    """weak-3-coloring at delta=2 completes in seconds under default guards.

    This is ROADMAP open item (a): the derivation sits *inside* the size
    guards (grid of 477k candidates < 8M), but the pre-kernel string path
    needed an exhaustive frozenset walk of that grid plus a quadratic
    domination filter -- days of wall clock.  The kernel's prefix completion
    finishes it in a few seconds.
    """
    from repro.problems.weak_coloring import weak_coloring_pointer

    result = speedup(weak_coloring_pointer(3, 2))
    assert len(result.full.labels) == 976
    assert len(result.full.node_constraint) == 488


@pytest.mark.slow
def test_kernel_unlocks_superweak3_coloring():
    """superweak-3-coloring at delta=2: the other formerly intractable case."""
    from repro.problems.superweak import superweak

    result = speedup(superweak(3, 2))
    assert len(result.full.labels) == 976
    assert len(result.full.node_constraint) == 488


def test_legacy_grid_guard_still_refuses_5_coloring():
    """The frozen legacy path keeps its a-priori grid refusal, fast.

    The streaming kernel retired that guard (see the slow companion test:
    the same instance now *completes*), but the legacy reference still
    predicts the full candidate grid and refuses in milliseconds -- the
    differential suite relies on that asymmetry being exactly here.
    """
    import _legacy
    from repro.problems.coloring import coloring as coloring_problem

    five = coloring_problem(5, 2)
    with pytest.raises(EngineLimitError) as legacy_info:
        _legacy.compute_speedup(five)
    assert legacy_info.value.limit_name == "max_candidate_configs"
    assert legacy_info.value.observed == 28_716_831


@pytest.mark.slow
def test_streaming_full_step_completes_5_coloring():
    """5-coloring at delta=2 completes under default limits.

    Historically refused a-priori (the candidate grid is ~28.7M); the
    streaming full step bounds memory by the undominated frontier instead,
    so the derivation goes through and materialises the real Pi_1: 7577
    labels, 3829 node configurations, ~24.8M edge configurations.
    """
    from repro.core.speedup import compute_speedup
    from repro.problems.coloring import coloring as coloring_problem

    result = compute_speedup(coloring_problem(5, 2))
    assert len(result.full.labels) == 7577
    assert len(result.full.node_constraint) == 3829
    assert len(result.full.edge_constraint) == 24_808_913
    assert set(result.full_meaning) == set(result.full.labels)


def test_derived_problem_is_compressed(sc3):
    derived = speedup(sc3).full
    assert derived.compressed().labels == derived.labels


def test_speedup_result_records_simplification(sc3):
    assert speedup(sc3, simplify=True).simplified
    assert not speedup(sc3, simplify=False).simplified
