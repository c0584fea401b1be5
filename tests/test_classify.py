"""The two-sided classifier: brackets, fuzz invariants, checkpoint/resume.

Four layers of coverage:

* **The showcase bracket.**  ``indegree-handshake`` at delta 2 is the
  catalog's designed-to-close problem: not 0-round solvable, speedup
  trivial, so the classifier must bracket it ``[1, 1] tight`` with both
  certificates present and independently re-verifiable.
* **Bracket semantics.**  The ``ComplexityBracket`` constructor is itself a
  soundness gate (mismatched problems, unbounded-plus-upper, inverted
  intervals all raise), ``from_dict`` cross-checks the serialized summary
  fields against the certificates, and the JSON form round-trips
  byte-identically.
* **Checkpoint/resume.**  Resuming a classification without a checkpoint
  is a fresh run.  The abort/resume, corruption and fingerprint contracts
  of the chase's checkpoints are pinned next to the lower-bound search's in
  ``test_faults``, where both directions share one parametrized battery.
* **Property fuzz.**  Every classifiable catalog problem and ~200 seeded
  random problems: whenever certificates come back, construction already
  enforces ``min <= max`` (an inverted pair raises), both sides re-verify
  clean, and the bracket JSON round-trips.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.certificate import (
    CertificateError,
    UpperBoundCertificate,
)
from repro.core.problem import Problem
from repro.core.zero_round import ZeroRoundWitness
from repro.engine import Engine, EngineConfig
from repro.problems import indegree_handshake, mis, sinkless_orientation
from repro.problems.catalog import catalog, get_problem
from repro.search.classify import ComplexityBracket, classify
from repro.search.upper import KIND_EXHAUSTED, KIND_UPPER_BOUND


@pytest.fixture(scope="module")
def engine():
    return Engine(
        EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    )


@pytest.fixture(scope="module")
def handshake_result(engine):
    return engine.classify(indegree_handshake(2), max_steps=3)


# -- the showcase bracket ------------------------------------------------------


def test_handshake_brackets_tight(handshake_result):
    bracket = handshake_result.bracket
    assert bracket.lower is not None and bracket.upper is not None
    assert (bracket.min_rounds, bracket.max_rounds) == (1, 1)
    assert bracket.verdict == "tight"
    assert not bracket.unbounded
    assert bracket.describe() == "[1, 1] tight"
    check = bracket.verify()
    assert check.valid and not check.failures
    assert handshake_result.upper_result is not None
    assert handshake_result.upper_result.kind == KIND_UPPER_BOUND


def test_handshake_bracket_roundtrips_byte_identically(handshake_result):
    payload = handshake_result.bracket.to_dict()
    wire = json.dumps(payload, sort_keys=True)
    rebuilt = ComplexityBracket.from_dict(json.loads(wire))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire


def test_classify_result_serializes(handshake_result):
    payload = handshake_result.to_dict()
    assert set(payload) == {"problem", "bracket", "lower_result", "upper_result"}
    assert payload["bracket"]["verdict"] == "tight"
    json.dumps(payload, sort_keys=True)  # JSON-clean throughout
    assert "classification of indegree-handshake[d=2]" in handshake_result.summary()


def test_unbounded_lower_skips_chase(engine):
    result = engine.classify(sinkless_orientation(3), max_steps=4)
    bracket = result.bracket
    assert bracket.unbounded
    assert bracket.upper is None and result.upper_result is None
    assert bracket.min_rounds is None and bracket.max_rounds is None
    assert bracket.verdict == "tight"
    assert bracket.describe() == "[Omega(log n)] tight"
    assert bracket.verify().valid
    assert "chase skipped" in result.summary()


def test_trivial_problem_brackets_zero(engine):
    trivial = Problem.make(
        name="always-A",
        delta=2,
        edge_configs={("A", "A")},
        node_configs={("A", "A")},
        labels=["A"],
    )
    result = engine.classify(trivial, max_steps=2)
    bracket = result.bracket
    assert bracket.lower is None  # 0-round solvable: nothing to bound below
    assert bracket.upper is not None and bracket.upper.claimed_rounds == 0
    assert (bracket.min_rounds, bracket.max_rounds) == (0, 0)
    assert bracket.verdict == "tight"
    assert bracket.verify().valid


def test_exhausted_chase_leaves_bracket_open(engine):
    # 3-coloring at delta 2 (rings): Theta(log* n) in reality, so no finite
    # chase depth can close it; the bracket must come back honest about that.
    result = engine.classify(get_problem("3-coloring", 2), max_steps=2)
    bracket = result.bracket
    assert result.upper_result is not None
    assert result.upper_result.kind == KIND_EXHAUSTED
    assert bracket.upper is None and bracket.max_rounds is None
    assert bracket.verdict == "open"
    assert bracket.describe().endswith("?] open")


def _lower_stats(speedups, states, candidates, pruned, checks, hits):
    return {
        "speedup_calls": speedups,
        "states_expanded": states,
        "candidates_generated": candidates,
        "duplicates_pruned": 0,
        "zero_round_pruned": pruned,
        "limit_hits": 0,
        "zero_round_checks": checks,
        "zero_round_memo_hits": hits,
        "task_failures": 0,
    }


def _upper_stats(speedups, states, candidates, checks, hits):
    return {
        "speedup_calls": speedups,
        "states_expanded": states,
        "candidates_generated": candidates,
        "duplicates_pruned": 0,
        "hardenings_generated": 0,
        "limit_hits": 0,
        "zero_round_checks": checks,
        "zero_round_memo_hits": hits,
        "task_failures": 0,
    }


@pytest.mark.parametrize(
    "name,delta,max_steps,lower,upper",
    [
        ("indegree-handshake", 2, 3, _lower_stats(1, 1, 1, 11, 2, 0), _upper_stats(1, 1, 1, 2, 1)),
        ("sinkless-orientation", 3, 4, _lower_stats(2, 2, 5, 3, 5, 0), None),
        ("mis", 3, 2, _lower_stats(5, 5, 77, 106, 78, 1), _upper_stats(2, 2, 2, 3, 2)),
    ],
)
def test_classify_stats_are_pinned(name, delta, max_steps, lower, upper):
    """Where the 0-round memo is asked and by which key moves none of the
    search counters: checks, memo hits and dedup prunes stay as recorded.
    Serial, because process workers of one batch do not share memo hits."""
    engine = Engine(
        EngineConfig(executor="serial", max_derived_labels=2_000, max_candidate_configs=50_000)
    )
    result = engine.classify(get_problem(name, delta), max_steps=max_steps)
    assert result.lower_result.stats.to_dict() == lower
    upper_result = result.upper_result
    assert (None if upper_result is None else upper_result.stats.to_dict()) == upper


def test_classify_output_depends_on_backend_only_in_lower_memo_hits():
    """mis[3] under the ``classify-mix`` caps, serial against process.

    Process workers of one expansion batch each hold their own 0-round
    memo, so a twin a serial run finds in the shared memo can miss there:
    the lower search's ``zero_round_memo_hits`` is the one backend-dependent
    figure, and it can only fall.  Everything else in the JSON must match.
    """
    outputs = {}
    for backend in ("serial", "process"):
        engine = Engine(
            EngineConfig(
                executor=backend,
                max_workers=2,
                max_derived_labels=2_000,
                max_candidate_configs=50_000,
            )
        )
        outputs[backend] = engine.classify(mis(3), max_steps=2).to_dict()
    memo_hits = {
        backend: output["lower_result"]["stats"].pop("zero_round_memo_hits")
        for backend, output in outputs.items()
    }
    assert outputs["process"] == outputs["serial"]
    assert memo_hits["process"] <= memo_hits["serial"]


# -- bracket construction and deserialization gates ----------------------------


def _junk_upper(problem: Problem) -> UpperBoundCertificate:
    """A structurally well-formed 0-step certificate (never verified here)."""
    return UpperBoundCertificate(
        initial=problem,
        witness=ZeroRoundWitness(
            problem_name=problem.name, setting="edge-orientations", splits={}
        ),
        steps=(),
    )


def test_bracket_rejects_foreign_certificates(handshake_result):
    with pytest.raises(CertificateError, match="not about the bracket's problem"):
        ComplexityBracket(
            problem=mis(3), lower=handshake_result.bracket.lower, upper=None
        )
    with pytest.raises(CertificateError, match="not about the bracket's problem"):
        ComplexityBracket(
            problem=mis(3), lower=None, upper=handshake_result.bracket.upper
        )


def test_bracket_rejects_unbounded_with_upper(engine):
    so3 = sinkless_orientation(3)
    lower = engine.search_lower_bound(so3, max_steps=4).certificate
    assert lower is not None and lower.unbounded
    with pytest.raises(CertificateError, match="unbounded lower bound contradicts"):
        ComplexityBracket(problem=so3, lower=lower, upper=_junk_upper(so3))


def test_bracket_rejects_inverted_interval(handshake_result):
    # The real lower certificate proves >= 1 round; a 0-step upper claims 0.
    problem = handshake_result.problem
    with pytest.raises(CertificateError, match="inverted"):
        ComplexityBracket(
            problem=problem,
            lower=handshake_result.bracket.lower,
            upper=_junk_upper(problem),
        )


@pytest.mark.parametrize("field", ["min_rounds", "max_rounds", "unbounded", "verdict"])
def test_from_dict_requires_derived_fields(handshake_result, field):
    payload = handshake_result.bracket.to_dict()
    del payload[field]
    with pytest.raises(CertificateError, match=f"missing '{field}'"):
        ComplexityBracket.from_dict(payload)


@pytest.mark.parametrize(
    "field,forged",
    [("min_rounds", 0), ("max_rounds", 99), ("unbounded", True), ("verdict", "gap")],
)
def test_from_dict_rejects_tampered_summary(handshake_result, field, forged):
    payload = handshake_result.bracket.to_dict()
    assert payload[field] != forged
    payload[field] = forged
    with pytest.raises(CertificateError, match="disagrees with its certificates"):
        ComplexityBracket.from_dict(payload)


# -- checkpoint / resume -------------------------------------------------------


def test_classify_checkpoint_without_prior_state_is_fresh(tmp_path):
    engine = Engine(
        EngineConfig(
            cache_dir=tmp_path / "c",
            max_derived_labels=5_000,
            max_candidate_configs=100_000,
        )
    )
    result = engine.classify(
        indegree_handshake(2), max_steps=3, checkpoint=True, resume=True
    )
    assert result.bracket.describe() == "[1, 1] tight"
    assert result.bracket.verify().valid
    # Both phases completed: every checkpoint was consumed on the way out.
    assert list((tmp_path / "c" / "checkpoints").glob("*.json")) == []


# -- property fuzz: catalog and random problems --------------------------------


def _bracket_invariants(result) -> None:
    """What every classification must satisfy, whatever it found."""
    bracket = result.bracket
    # Construction already enforces min <= max and unbounded-vs-upper; the
    # checks below re-verify the certificates and pin the JSON round trip.
    check = bracket.verify()
    assert check.valid, check.failures
    payload = json.dumps(bracket.to_dict(), sort_keys=True)
    rebuilt = ComplexityBracket.from_dict(json.loads(payload))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == payload
    if bracket.unbounded:
        assert bracket.upper is None and bracket.verdict == "tight"
    if bracket.lower is not None and bracket.upper is not None:
        assert bracket.min_rounds <= bracket.max_rounds


# The weak/superweak colorings at delta 2 take minutes of lower-search time
# under any useful budget; they get the slow-marked sweep below, everything
# else runs in tier-1.
_EXPENSIVE_FAMILIES = ("weak-2-coloring", "weak-3-coloring",
                       "superweak-2-coloring", "superweak-3-coloring")


def test_catalog_classifications_are_coherent():
    engine = Engine(
        EngineConfig(max_derived_labels=2_000, max_candidate_configs=50_000)
    )
    classified = 0
    for name, family in sorted(catalog().items()):
        if name in _EXPENSIVE_FAMILIES:
            continue
        delta = max(2, family.min_delta)
        result = engine.classify(family(delta), max_steps=2)
        _bracket_invariants(result)
        classified += 1
    assert classified >= 10  # the cheap catalog majority participates


@pytest.mark.slow
@pytest.mark.parametrize("name", _EXPENSIVE_FAMILIES)
def test_expensive_catalog_classifications_are_coherent(name):
    engine = Engine(
        EngineConfig(max_derived_labels=2_000, max_candidate_configs=50_000)
    )
    family = catalog()[name]
    result = engine.classify(family(max(2, family.min_delta)), max_steps=2)
    _bracket_invariants(result)


def _random_problem(rng: random.Random) -> Problem:
    delta = rng.randint(2, 3)
    alphabet = rng.sample(["A", "B", "C", "D"], rng.randint(1, 3))
    edge_count = rng.randint(1, 4)
    node_count = rng.randint(1, 4)
    edges = {tuple(sorted(rng.choices(alphabet, k=2))) for _ in range(edge_count)}
    nodes = {
        tuple(sorted(rng.choices(alphabet, k=delta))) for _ in range(node_count)
    }
    return Problem.make(
        name=f"fuzz-{rng.randrange(10**6)}",
        delta=delta,
        edge_configs=edges,
        node_configs=nodes,
        labels=alphabet,
    )


@pytest.mark.parametrize("seed", range(25))
def test_random_classifications_are_coherent(seed):
    engine = Engine(
        EngineConfig(max_derived_labels=500, max_candidate_configs=10_000)
    )
    rng = random.Random(3000 + seed)
    for _ in range(8):
        problem = _random_problem(rng)
        result = classify(
            problem,
            engine=engine,
            max_steps=1,
            beam_width=2,
            max_moves=4,
            chase_beam_width=2,
            chase_max_hardenings=2,
            budget=8,
            chase_budget=8,
        )
        _bracket_invariants(result)
