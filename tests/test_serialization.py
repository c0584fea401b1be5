"""JSON round-trip tests for the wire format of the core dataclasses."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.problem import Problem, ProblemError
from repro.core.relaxation import RelaxationCertificate
from repro.core.sequence import EliminationResult, SequenceStep, run_round_elimination
from repro.core.speedup import HalfStepResult, SpeedupResult, compute_speedup, half_step
from repro.core.zero_round import ZeroRoundWitness, zero_round_no_input
from repro.utils.multiset import multisets_of_size


def _through_json(payload):
    """Force a real wire trip: everything must survive json encode/decode."""
    return json.loads(json.dumps(payload))


@st.composite
def random_problems(draw):
    delta = draw(st.integers(1, 3))
    labels = draw(
        st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True
        )
    )
    all_edges = list(multisets_of_size(labels, 2))
    all_nodes = list(multisets_of_size(labels, delta))
    edges = draw(st.lists(st.sampled_from(all_edges), max_size=len(all_edges)))
    nodes = draw(st.lists(st.sampled_from(all_nodes), max_size=len(all_nodes)))
    return Problem.make("random", delta, edges, nodes, labels=labels)


@given(random_problems())
def test_problem_roundtrip_property(problem):
    assert Problem.from_dict(_through_json(problem.to_dict())) == problem


def test_problem_roundtrip_catalog(sc3, mis_d3, weak2_d3):
    for problem in (sc3, mis_d3, weak2_d3):
        assert Problem.from_dict(_through_json(problem.to_dict())) == problem


def test_problem_from_dict_rejects_malformed():
    with pytest.raises(ProblemError):
        Problem.from_dict({"name": "x"})
    with pytest.raises(ProblemError):
        Problem.from_dict(
            {
                "name": "x",
                "delta": "not an int",
                "labels": [],
                "edge_constraint": [],
                "node_constraint": [],
            }
        )
    # Structural garbage must surface as ProblemError, never raw TypeError.
    with pytest.raises(ProblemError):
        Problem.from_dict(
            {
                "name": "x",
                "delta": 2,
                "labels": ["a"],
                "edge_constraint": [["a", "a", "a"]],
                "node_constraint": [["a", "a"]],
            }
        )
    with pytest.raises(ProblemError):
        Problem.from_dict(
            {
                "name": "x",
                "delta": 2,
                "labels": None,
                "edge_constraint": 7,
                "node_constraint": [],
            }
        )


def test_half_step_result_roundtrip(sc3):
    result = half_step(sc3)
    back = HalfStepResult.from_dict(_through_json(result.to_dict()))
    assert back == result


def test_speedup_result_roundtrip(sc3, mis_d3):
    for problem in (sc3, mis_d3):
        result = compute_speedup(problem)
        back = SpeedupResult.from_dict(_through_json(result.to_dict()))
        assert back == result
        # Provenance must survive: meanings expand identically.
        for label in sorted(result.full.labels):
            assert back.full_label_as_original_sets(
                label
            ) == result.full_label_as_original_sets(label)


def test_zero_round_witness_roundtrip():
    from repro.utils.multiset import multisets_of_size as msets

    trivial = Problem.make(
        "trivial", 3, [("a", "a")], list(msets(["a"], 3)), labels=["a"]
    )
    witness = zero_round_no_input(trivial)
    assert witness is not None
    back = ZeroRoundWitness.from_dict(_through_json(witness.to_dict()))
    assert back == witness
    # Integer split keys survive the string keys JSON forces.
    assert set(back.splits) == set(witness.splits)


def test_relaxation_certificate_roundtrip():
    certificate = RelaxationCertificate(
        source_name="src", target_name="dst", mapping={"a": "x", "b": "x"}
    )
    back = RelaxationCertificate.from_dict(_through_json(certificate.to_dict()))
    assert back == certificate


def test_sequence_step_and_elimination_roundtrip(sc3):
    result = run_round_elimination(sc3, max_steps=3)
    back = EliminationResult.from_dict(_through_json(result.to_dict()))
    assert back == result
    assert back.unbounded == result.unbounded
    assert back.lower_bound == result.lower_bound
    for step, original in zip(back.steps, result.steps):
        assert SequenceStep.from_dict(_through_json(original.to_dict())) == step


def test_elimination_roundtrip_with_relaxation_and_witness(sc3):
    from repro.core.canonical import find_isomorphism

    def relax_to_canonical(problem, step):
        mapping = find_isomorphism(problem.compressed(), sc3.compressed())
        assert mapping is not None
        return sc3, mapping

    result = run_round_elimination(sc3, max_steps=2, relaxer=relax_to_canonical)
    assert result.steps[1].relaxation is not None
    back = EliminationResult.from_dict(_through_json(result.to_dict()))
    assert back == result

    trivial = Problem.make(
        "trivial",
        2,
        [("a", "a")],
        list(multisets_of_size(["a"], 2)),
        labels=["a"],
    )
    with_witness = run_round_elimination(trivial, max_steps=1)
    assert with_witness.steps[0].zero_round_witness is not None
    assert (
        EliminationResult.from_dict(_through_json(with_witness.to_dict()))
        == with_witness
    )


def test_to_dict_is_deterministic(sc3):
    result = compute_speedup(sc3)
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )
