"""E3/E4: engine half-steps match the paper's trit-sequence descriptions."""

import pytest

from repro.core.canonical import are_isomorphic
from repro.core.speedup import half_step
from repro.problems.superweak import superweak
from repro.problems.weak_coloring import weak_coloring_pointer
from repro.superweak.equivalents import superweak_half_equivalent, weak2_half_equivalent


@pytest.mark.parametrize("delta", [3, 4])
def test_weak2_half_matches_trit_description(delta):
    engine = half_step(weak_coloring_pointer(2, delta)).problem.compressed()
    equivalent = weak2_half_equivalent(delta).compressed()
    assert are_isomorphic(engine, equivalent)


@pytest.mark.parametrize("delta", [3, 4])
def test_superweak2_half_matches_trit_description(delta):
    engine = half_step(superweak(2, delta)).problem.compressed()
    equivalent = superweak_half_equivalent(2, delta).compressed()
    assert are_isomorphic(engine, equivalent)


def test_weak2_has_exactly_seven_usable_outputs():
    """Section 4.6: 'there are only 7 outputs that can be used'."""
    engine = half_step(weak_coloring_pointer(2, 3)).problem.compressed()
    assert len(engine.labels) == 7


def test_weak2_excludes_00_and_22():
    equivalent = weak2_half_equivalent(3)
    assert "00" not in equivalent.labels
    assert "22" not in equivalent.labels
    assert len(equivalent.labels) == 7


def test_weak2_edge_rows_count():
    """The paper lists 5 g_{1/2} rows; one involves the unusable empty set,
    leaving 4 usable rows: {01,21}, {02,20}, {10,12}, {11,11}."""
    equivalent = weak2_half_equivalent(3).compressed()
    assert equivalent.edge_constraint == frozenset(
        {("01", "21"), ("02", "20"), ("10", "12"), ("11", "11")}
    )


def test_superweak_half_uses_all_tritseqs():
    equivalent = superweak_half_equivalent(2, 3).compressed()
    assert len(equivalent.labels) == 9


def test_superweak3_half_small_delta():
    """k = 3: 27 trit sequences, edge pairs are complements."""
    equivalent = superweak_half_equivalent(3, 2)
    assert len(equivalent.labels) == 27
    from repro.superweak.tritseq import complement

    for a, b in equivalent.edge_constraint:
        assert complement(a) == b
