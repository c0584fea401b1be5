"""Adversarial mutation tests: certificates must never verify by accident.

A :class:`~repro.core.certificate.LowerBoundCertificate` deserialized from
JSON is an independently auditable proof object, so its ``verify()`` is a
trust boundary: *every* serialized field that carries semantic weight must
be load-bearing.  These tests take real certificates (a search-discovered
fixed-point chain and the hand-built Section 4.4 chain, which together
exercise both step kinds and both terminals), serialize them, apply one
surgical mutation at a time -- swapped links, dropped and duplicated steps,
forged problems, forged provenance meanings, forged relaxation maps and
endpoints, tampered terminals -- and assert that each mutant is rejected,
either at ``from_dict`` time (:class:`CertificateError`) or by
``verify()``.

Mutations that yield a *different but still true* certificate are kept out
of the rejection suite on principle -- a sound verifier cannot reject a
valid proof -- and are pinned separately in
``test_weakening_mutations_stay_true`` with the reason each one remains
true:

* ``version`` is schema metadata, ignored by construction;
* ``orientations`` flipped True -> False weakens the claim (0-round
  unsolvability *with* orientation inputs implies unsolvability without);
* a fixed-point terminal downgraded to ``zero-round-unsolvable`` discards
  the pumping argument but keeps the (true) finite bound;
* truncating the *final* step of an unsolvable chain shortens it to a
  smaller, still-certified bound.
"""

import copy
import json

import pytest

import repro.core.canonical as canonical
from repro.core.canonical import CanonicalForm
from repro.core.certificate import (
    HARDENING,
    SPEEDUP,
    TERMINAL_FIXED_POINT,
    TERMINAL_UNSOLVABLE,
    CertificateError,
    CertificateStep,
    LowerBoundCertificate,
    UpperBoundCertificate,
)
from repro.core.problem import Problem
from repro.core.relaxation import HARDENS, RelaxationCertificate, is_harder_restriction
from repro.core.zero_round import zero_round_with_orientations
from repro.analysis.certificates import sinkless_certificate
from repro.engine import Engine, EngineConfig
from repro.problems import indegree_handshake


@pytest.fixture(scope="module")
def chain_payload():
    """The Section 4.4 chain: speedup and relaxation steps, unsolvable terminal."""
    certificate = sinkless_certificate(delta=3, rounds=2)
    assert certificate.verify().valid  # the unmutated baseline must hold
    return certificate.to_dict()


@pytest.fixture(scope="module")
def fixed_point_payload(so3):
    """A search-discovered pumpable fixed point (speedup steps only)."""
    engine = Engine(
        EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    )
    result = engine.search_lower_bound(so3, max_steps=4)
    certificate = result.certificate
    assert certificate is not None and certificate.terminal == TERMINAL_FIXED_POINT
    assert certificate.verify().valid
    return certificate.to_dict()


def assert_rejected(payload: dict, reference: dict, cls=LowerBoundCertificate) -> None:
    """A mutant must fail from_dict or verify -- and must actually differ."""
    # Round-trip through JSON so mutants are exactly what a wire attacker
    # could present.  The no-op guard compares serialized bytes: Python's
    # True == 1 would otherwise hide type-level forgeries from it.
    serialized = json.dumps(payload, sort_keys=True)
    assert serialized != json.dumps(reference, sort_keys=True), (
        "mutation was a no-op; harness bug"
    )
    payload = json.loads(serialized)
    try:
        certificate = cls.from_dict(payload)
    except CertificateError:
        return  # rejected at parse time
    check = certificate.verify()
    assert not check.valid, "mutated certificate verified: false-verify"
    assert check.bound == 0 and not check.unbounded


def _first_speedup(payload: dict) -> dict:
    return next(s for s in payload["steps"] if s["kind"] == "speedup")["speedup"]


def _first_relaxation(payload: dict) -> dict:
    return next(s for s in payload["steps"] if s["kind"] == "relaxation")


# Each mutation is a named function payload -> None (mutating in place on a
# deep copy).  The two certificate shapes share the problem/speedup/terminal
# mutations; relaxation mutations run on the chain certificate only (the
# fixed-point chain has no relaxation step).


def mutate_initial_name(p):
    p["initial"]["name"] += "-forged"


def mutate_initial_delta(p):
    p["initial"]["delta"] += 1


def mutate_initial_drop_label(p):
    p["initial"]["labels"] = p["initial"]["labels"][1:]


def mutate_initial_drop_edge(p):
    p["initial"]["edge_constraint"] = p["initial"]["edge_constraint"][1:]


def _missing_edge(problem: dict) -> list:
    """A canonical edge pair the problem does not allow (harness precondition)."""
    present = {tuple(pair) for pair in problem["edge_constraint"]}
    return next(
        [a, b]
        for a in problem["labels"]
        for b in problem["labels"]
        if a <= b and (a, b) not in present
    )


def mutate_initial_add_edge(p):
    p["initial"]["edge_constraint"].append(_missing_edge(p["initial"]))


def mutate_initial_drop_node_config(p):
    p["initial"]["node_constraint"] = p["initial"]["node_constraint"][1:]


def mutate_swap_links(p):
    p["steps"][0], p["steps"][1] = p["steps"][1], p["steps"][0]


def mutate_drop_first_step(p):
    del p["steps"][0]


def mutate_duplicate_first_step(p):
    p["steps"].insert(0, copy.deepcopy(p["steps"][0]))


def mutate_step_kind(p):
    p["steps"][0]["kind"] = (
        "relaxation" if p["steps"][0]["kind"] == "speedup" else "speedup"
    )


def mutate_step_kind_unknown(p):
    p["steps"][0]["kind"] = "teleport"


def mutate_speedup_original_name(p):
    _first_speedup(p)["original"]["name"] += "-forged"


def mutate_speedup_original_add_edge(p):
    original = _first_speedup(p)["original"]
    original["edge_constraint"].append(_missing_edge(original))


def mutate_speedup_half_name(p):
    _first_speedup(p)["half"]["name"] += "-forged"


def mutate_speedup_half_drop_edge(p):
    half = _first_speedup(p)["half"]
    half["edge_constraint"] = half["edge_constraint"][1:]


def mutate_speedup_half_drop_node_config(p):
    half = _first_speedup(p)["half"]
    half["node_constraint"] = half["node_constraint"][1:]


def mutate_speedup_half_meaning_drop_key(p):
    speedup = _first_speedup(p)
    key = sorted(speedup["half_meaning"])[0]
    del speedup["half_meaning"][key]


def mutate_speedup_half_meaning_alter_members(p):
    speedup = _first_speedup(p)
    key = sorted(speedup["half_meaning"])[0]
    speedup["half_meaning"][key] = speedup["half_meaning"][key][1:]


def mutate_speedup_full_add_edge(p):
    full = _first_speedup(p)["full"]
    missing = next(
        [a, b]
        for a in full["labels"]
        for b in full["labels"]
        if a <= b and [a, b] not in full["edge_constraint"]
    )
    full["edge_constraint"].append(missing)


def mutate_speedup_full_drop_node_config(p):
    full = _first_speedup(p)["full"]
    full["node_constraint"] = full["node_constraint"][1:]


def mutate_speedup_full_rename_label(p):
    # Rename one derived label in the problem only: the recorded meanings no
    # longer cover the alphabet.
    full = _first_speedup(p)["full"]
    old = full["labels"][0]
    new = old + "X"
    full["labels"][0] = new
    full["edge_constraint"] = [
        [new if x == old else x for x in pair] for pair in full["edge_constraint"]
    ]
    full["node_constraint"] = [
        [new if x == old else x for x in cfg] for cfg in full["node_constraint"]
    ]
    # Keep the edge/node tuples canonically sorted so the Problem parses and
    # the forgery has to be caught semantically, not by a formatting error.
    full["edge_constraint"] = [sorted(pair) for pair in full["edge_constraint"]]
    full["node_constraint"] = [sorted(cfg) for cfg in full["node_constraint"]]


def mutate_speedup_full_meaning_drop_key(p):
    speedup = _first_speedup(p)
    key = sorted(speedup["full_meaning"])[0]
    del speedup["full_meaning"][key]


def mutate_speedup_full_meaning_swap_values(p):
    speedup = _first_speedup(p)
    keys = sorted(speedup["full_meaning"])
    first, second = keys[0], keys[1]
    meanings = speedup["full_meaning"]
    meanings[first], meanings[second] = meanings[second], meanings[first]


def mutate_speedup_full_meaning_alter_members(p):
    speedup = _first_speedup(p)
    key = sorted(speedup["full_meaning"])[0]
    speedup["full_meaning"][key] = speedup["full_meaning"][key][1:]


def mutate_speedup_simplified_flip(p):
    speedup = _first_speedup(p)
    speedup["simplified"] = not speedup["simplified"]


def mutate_terminal_unknown(p):
    p["terminal"] = "maybe"


def mutate_terminal_upgrade_to_fixed_point(p):
    # Claim an unbounded outcome the chain does not support.
    p["terminal"] = TERMINAL_FIXED_POINT
    p["fixed_point_of"] = 0


COMMON_MUTATIONS = [
    mutate_initial_name,
    mutate_initial_delta,
    mutate_initial_drop_label,
    mutate_initial_drop_edge,
    mutate_initial_add_edge,
    mutate_initial_drop_node_config,
    mutate_swap_links,
    mutate_drop_first_step,
    mutate_duplicate_first_step,
    mutate_step_kind,
    mutate_step_kind_unknown,
    mutate_speedup_original_name,
    mutate_speedup_original_add_edge,
    mutate_speedup_half_name,
    mutate_speedup_half_drop_edge,
    mutate_speedup_half_drop_node_config,
    mutate_speedup_half_meaning_drop_key,
    mutate_speedup_half_meaning_alter_members,
    mutate_speedup_full_add_edge,
    mutate_speedup_full_drop_node_config,
    mutate_speedup_full_rename_label,
    mutate_speedup_full_meaning_drop_key,
    mutate_speedup_full_meaning_swap_values,
    mutate_speedup_full_meaning_alter_members,
    mutate_speedup_simplified_flip,
    mutate_terminal_unknown,
]


@pytest.mark.parametrize("mutation", COMMON_MUTATIONS, ids=lambda m: m.__name__)
def test_chain_certificate_mutations_rejected(chain_payload, mutation):
    mutant = copy.deepcopy(chain_payload)
    mutation(mutant)
    assert_rejected(mutant, chain_payload)


@pytest.mark.parametrize(
    "mutation",
    COMMON_MUTATIONS + [mutate_terminal_upgrade_to_fixed_point],
    ids=lambda m: m.__name__,
)
def test_fixed_point_certificate_mutations_rejected(fixed_point_payload, mutation):
    mutant = copy.deepcopy(fixed_point_payload)
    mutation(mutant)
    assert_rejected(mutant, fixed_point_payload)


# -- relaxation-step forgeries (chain certificate only) ------------------------


def mutate_relaxation_source_name(p):
    _first_relaxation(p)["relaxation"]["source_name"] += "-forged"


def mutate_relaxation_target_name(p):
    _first_relaxation(p)["relaxation"]["target_name"] += "-forged"


def mutate_relaxation_direction_hardening(p):
    _first_relaxation(p)["relaxation"]["direction"] = "hardening"


def mutate_relaxation_direction_unknown(p):
    _first_relaxation(p)["relaxation"]["direction"] = "sideways"


def mutate_relaxation_mapping_drop_entry(p):
    mapping = _first_relaxation(p)["relaxation"]["mapping"]
    del mapping[sorted(mapping)[0]]


def mutate_relaxation_mapping_redirect(p):
    # Collapse the first source label onto the second's image: for the
    # sinkless isomorphism map this breaks the edge constraint image.
    mapping = _first_relaxation(p)["relaxation"]["mapping"]
    keys = sorted(mapping)
    mapping[keys[0]] = mapping[keys[1]]


def mutate_relaxation_mapping_unknown_value(p):
    mapping = _first_relaxation(p)["relaxation"]["mapping"]
    mapping[sorted(mapping)[0]] = "no-such-label"


def mutate_relaxation_mapping_spurious_key(p):
    mapping = _first_relaxation(p)["relaxation"]["mapping"]
    mapping["no-such-source-label"] = sorted(mapping.values())[0]


def mutate_relaxation_problem_drop_node_config(p):
    step = _first_relaxation(p)
    step["problem"]["node_constraint"] = step["problem"]["node_constraint"][1:]


def mutate_relaxation_problem_drop_edge(p):
    step = _first_relaxation(p)
    step["problem"]["edge_constraint"] = step["problem"]["edge_constraint"][1:]


def mutate_relaxation_problem_name(p):
    step = _first_relaxation(p)
    step["problem"]["name"] += "-forged"


RELAXATION_MUTATIONS = [
    mutate_relaxation_source_name,
    mutate_relaxation_target_name,
    mutate_relaxation_direction_hardening,
    mutate_relaxation_direction_unknown,
    mutate_relaxation_mapping_drop_entry,
    mutate_relaxation_mapping_redirect,
    mutate_relaxation_mapping_unknown_value,
    mutate_relaxation_mapping_spurious_key,
    mutate_relaxation_problem_drop_node_config,
    mutate_relaxation_problem_drop_edge,
    mutate_relaxation_problem_name,
]


@pytest.mark.parametrize("mutation", RELAXATION_MUTATIONS, ids=lambda m: m.__name__)
def test_relaxation_step_mutations_rejected(chain_payload, mutation):
    mutant = copy.deepcopy(chain_payload)
    mutation(mutant)
    assert_rejected(mutant, chain_payload)


# -- fixed-point terminal forgeries --------------------------------------------


@pytest.mark.parametrize(
    "position", ["wrong", "out-of-range", "negative", "string", "bool", "null"]
)
def test_fixed_point_position_forgeries_rejected(fixed_point_payload, position):
    mutant = copy.deepcopy(fixed_point_payload)
    honest = mutant["fixed_point_of"]
    chain_length = len(mutant["steps"]) + 1
    forged = {
        # An earlier position the final problem is *not* isomorphic to: the
        # honest fixed point of this chain is position 1, position 0 is the
        # differently-sized input problem.
        "wrong": (honest + 1) % chain_length,
        "out-of-range": chain_length + 3,
        "negative": -1,
        "string": str(honest),
        # honest is an int; a bool at the same numeric value must still be
        # rejected (the type check, not numeric equality, is load-bearing).
        "bool": bool(honest),
        "null": None,
    }[position]
    mutant["fixed_point_of"] = forged
    assert_rejected(mutant, fixed_point_payload)


def test_truncated_fixed_point_terminal_rejected(fixed_point_payload):
    """Dropping the closing step breaks the cycle: the claim must die with it."""
    mutant = copy.deepcopy(fixed_point_payload)
    del mutant["steps"][-1]
    assert_rejected(mutant, fixed_point_payload)


def test_fixed_point_rejects_a_lying_canonicaliser(fixed_point_payload, monkeypatch):
    """The canonical labelling only proposes the fixed point's map: with
    the right keys but a wrong ordering, verify() rejects -- a canonicaliser
    fault can cause a false reject, never a false verify."""
    certificate = LowerBoundCertificate.from_dict(fixed_point_payload)
    honest = canonical.canonical_form
    calls = []

    def lying(problem):
        form = honest(problem)
        calls.append(problem)
        if len(calls) % 2:
            return form
        # Every second form keeps its key but rotates its ordering.
        return CanonicalForm(form.key, form.ordering[1:] + form.ordering[:1])

    monkeypatch.setattr(canonical, "canonical_form", lying)
    check = certificate.verify()
    assert calls, "verify() never consulted the canonicaliser"
    assert not check.valid and check.bound == 0 and not check.unbounded
    assert any("not isomorphic" in failure for failure in check.failures)


def test_every_serialized_field_is_covered(chain_payload):
    """The mutation catalogue touches every top-level and step-level field."""
    mutated_names = {m.__name__ for m in COMMON_MUTATIONS + RELAXATION_MUTATIONS}
    for field in ("initial", "terminal"):
        assert any(field in name for name in mutated_names)
    speedup = _first_speedup(chain_payload)
    for field in speedup:
        assert any(field.rstrip("_") in name for name in mutated_names), field
    relaxation = _first_relaxation(chain_payload)["relaxation"]
    for field in relaxation:
        assert any(field in name for name in mutated_names), field
    # steps / fixed_point_of / orientations / version are covered by the
    # link-swap, position-forgery, and weakening tests respectively.


# -- weakening mutations: different but still TRUE certificates ----------------


def test_weakening_mutations_stay_true(chain_payload):
    """Mutations that only weaken the claim still verify -- by design.

    A sound verifier accepts every valid proof, including proofs of weaker
    statements; rejecting these would require the verifier to second-guess
    *which* true claim the producer meant.  Each case documents why the
    mutated certificate remains true.
    """
    # orientations True -> False: unsolvability with orientation inputs
    # implies unsolvability without any input (the adversary only gets
    # weaker), so the terminal still holds.
    weakened = copy.deepcopy(chain_payload)
    weakened["orientations"] = False
    assert LowerBoundCertificate.from_dict(weakened).verify().valid

    # Dropping the trailing relaxation step of an unsolvable chain leaves a
    # shorter alternating chain whose final problem (the underlying fixed
    # point) is still not 0-round solvable: a smaller, true bound.
    truncated = copy.deepcopy(chain_payload)
    assert truncated["steps"][-1]["kind"] == "relaxation"
    del truncated["steps"][-1]
    check = LowerBoundCertificate.from_dict(truncated).verify()
    assert check.valid

    # version is schema metadata; from_dict ignores it entirely.
    relabeled = copy.deepcopy(chain_payload)
    relabeled["version"] = 999
    rebuilt = LowerBoundCertificate.from_dict(relabeled)
    assert rebuilt == LowerBoundCertificate.from_dict(chain_payload)
    assert rebuilt.verify().valid


def test_fixed_point_downgrade_stays_true(fixed_point_payload):
    """Downgrading fixed-point -> unsolvable keeps a (weaker) true claim.

    The pumping argument is discarded, but every chain problem -- in
    particular the final one -- was checked not 0-round solvable, so the
    finite bound the downgraded terminal claims still holds.
    """
    mutant = copy.deepcopy(fixed_point_payload)
    mutant["terminal"] = TERMINAL_UNSOLVABLE
    mutant["fixed_point_of"] = None
    check = LowerBoundCertificate.from_dict(mutant).verify()
    assert check.valid and not check.unbounded


# -- upper-bound certificate forgeries -----------------------------------------
#
# The UpperBoundCertificate shares the initial-problem and speedup-step
# surface with the lower-bound chain (and the mutation catalogue above is
# reused for those), but adds two trust boundaries of its own: hardening
# steps (a restriction plus its HARDENS inclusion certificate) and the
# terminal 0-round witness (an actual algorithm, re-checked field by field).


@pytest.fixture(scope="module")
def upper_payload():
    """A hand-built upper chain: harden + speedup steps, witnessed terminal.

    The catalog's hardening generator is empirically inert on the showcase
    problems, so the hardening step is the identity restriction (a renamed
    copy with identical constraints) -- `is_harder_restriction` is
    deliberately non-strict, and the step still exercises every hardening
    check: direction, endpoints, identity map, and the embedding itself.
    """
    problem = indegree_handshake(2)
    restricted = Problem.make(
        name=problem.name + "|restricted",
        delta=problem.delta,
        edge_configs=problem.edge_constraint,
        node_configs=problem.node_constraint,
        labels=sorted(problem.labels),
    )
    assert is_harder_restriction(problem, restricted)
    engine = Engine(
        EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    )
    result = engine.speedup(restricted)
    witness = zero_round_with_orientations(result.full)
    assert witness is not None  # the derived handshake problem is trivial
    certificate = UpperBoundCertificate(
        initial=problem,
        witness=witness,
        steps=(
            CertificateStep(
                kind=HARDENING,
                problem=restricted,
                relaxation=RelaxationCertificate(
                    source_name=problem.name,
                    target_name=restricted.name,
                    mapping={label: label for label in restricted.labels},
                    direction=HARDENS,
                ),
            ),
            CertificateStep(kind=SPEEDUP, problem=result.full, speedup=result),
        ),
    )
    assert certificate.claimed_rounds == 1
    assert certificate.verify().valid  # the unmutated baseline must hold
    return certificate.to_dict()


def _hardening_step(p: dict) -> dict:
    return next(s for s in p["steps"] if s["kind"] == "hardening")


def mutate_harden_direction_relaxation(p):
    _hardening_step(p)["relaxation"]["direction"] = "relaxation"


def mutate_harden_direction_unknown(p):
    _hardening_step(p)["relaxation"]["direction"] = "sideways"


def mutate_harden_source_name(p):
    _hardening_step(p)["relaxation"]["source_name"] += "-forged"


def mutate_harden_target_name(p):
    _hardening_step(p)["relaxation"]["target_name"] += "-forged"


def mutate_harden_mapping_drop_entry(p):
    mapping = _hardening_step(p)["relaxation"]["mapping"]
    del mapping[sorted(mapping)[0]]


def mutate_harden_mapping_redirect(p):
    # Not the identity map any more: one label maps onto another's image.
    mapping = _hardening_step(p)["relaxation"]["mapping"]
    keys = sorted(mapping)
    mapping[keys[0]] = mapping[keys[1]]


def mutate_harden_mapping_spurious_key(p):
    mapping = _hardening_step(p)["relaxation"]["mapping"]
    mapping["no-such-label"] = sorted(mapping.values())[0]


def mutate_harden_problem_name(p):
    _hardening_step(p)["problem"]["name"] += "-forged"


def mutate_harden_problem_add_edge(p):
    # The "restriction" now allows an edge its source does not: not an
    # embedding, so its solutions no longer solve the source verbatim.
    step = _hardening_step(p)
    step["problem"]["edge_constraint"].append(_missing_edge(step["problem"]))


def mutate_witness_problem_name(p):
    p["witness"]["problem_name"] += "-forged"


def mutate_witness_setting_flip(p):
    p["witness"]["setting"] = "no-input"


def mutate_witness_setting_unknown(p):
    p["witness"]["setting"] = "telepathy"


def mutate_witness_drop_split(p):
    splits = p["witness"]["splits"]
    del splits[sorted(splits)[0]]


def mutate_witness_swap_split_sides(p):
    # Swap the in/out sides of the in-degree-1 split: the multiset is still
    # an allowed configuration, so only the compatibility check can object.
    ins, outs = p["witness"]["splits"]["1"]
    p["witness"]["splits"]["1"] = [outs, ins]


def mutate_witness_alien_label(p):
    ins, outs = p["witness"]["splits"]["1"]
    p["witness"]["splits"]["1"] = [ins, ["no-such-label"] * len(outs)]


def mutate_witness_wrong_arity(p):
    # Move the in-degree-1 split's in-label to the out side: the halves no
    # longer have sizes (s, delta - s).
    ins, outs = p["witness"]["splits"]["1"]
    p["witness"]["splits"]["1"] = [[], sorted(ins + outs)]


def mutate_witness_disallowed_config(p):
    # Replace the in-degree-0 split with a label multiset the final problem's
    # node constraint does not allow (one exists: 4 labels, 3 configurations).
    full = _first_speedup(p)["full"]
    allowed = {tuple(sorted(config)) for config in full["node_constraint"]}
    bad = next(
        [a, b]
        for a in full["labels"]
        for b in full["labels"]
        if a <= b and (a, b) not in allowed
    )
    p["witness"]["splits"]["0"] = [[], bad]


def mutate_upper_orientations_flip(p):
    # Unlike the lower-bound chain (where True -> False weakens a true
    # claim), the upper terminal's witness is setting-specific: an
    # orientation-driven algorithm is no algorithm at all without the
    # orientation input.
    p["orientations"] = False


UPPER_MUTATIONS = [
    mutate_harden_direction_relaxation,
    mutate_harden_direction_unknown,
    mutate_harden_source_name,
    mutate_harden_target_name,
    mutate_harden_mapping_drop_entry,
    mutate_harden_mapping_redirect,
    mutate_harden_mapping_spurious_key,
    mutate_harden_problem_name,
    mutate_harden_problem_add_edge,
    mutate_witness_problem_name,
    mutate_witness_setting_flip,
    mutate_witness_setting_unknown,
    mutate_witness_drop_split,
    mutate_witness_swap_split_sides,
    mutate_witness_alien_label,
    mutate_witness_wrong_arity,
    mutate_witness_disallowed_config,
    mutate_upper_orientations_flip,
]

# The terminal mutation targets a field the upper payload does not have (its
# terminal is the witness, mutated above), and adding an allowed edge to the
# initial problem *relaxes* it -- in the upper direction a weakening that
# keeps the certificate true (pinned in
# ``test_upper_weakening_mutations_stay_true``).  Everything else carries
# over.
UPPER_COMMON_MUTATIONS = [
    m
    for m in COMMON_MUTATIONS
    if "terminal" not in m.__name__ and m is not mutate_initial_add_edge
]


@pytest.mark.parametrize(
    "mutation",
    UPPER_COMMON_MUTATIONS + UPPER_MUTATIONS,
    ids=lambda m: m.__name__,
)
def test_upper_certificate_mutations_rejected(upper_payload, mutation):
    mutant = copy.deepcopy(upper_payload)
    mutation(mutant)
    assert_rejected(mutant, upper_payload, UpperBoundCertificate)


def test_upper_every_serialized_field_is_covered(upper_payload):
    """The upper-bound catalogue touches every payload-specific field."""
    mutated_names = {m.__name__ for m in UPPER_COMMON_MUTATIONS + UPPER_MUTATIONS}
    for field in ("initial", "orientations", "witness"):
        assert any(field in name for name in mutated_names), field
    for field in upper_payload["witness"]:
        # "splits" is mutated by the per-split functions (singular names).
        assert any(field.rstrip("s") in name for name in mutated_names), field
    hardening = _hardening_step(upper_payload)["relaxation"]
    for field in hardening:
        assert any(field in name for name in mutated_names), field
    speedup = _first_speedup(upper_payload)
    for field in speedup:
        assert any(field.rstrip("_") in name for name in mutated_names), field
    # steps / version are covered by the link-swap mutations and the
    # version-metadata test respectively.


def test_upper_weakening_mutations_stay_true(upper_payload):
    """Upper-direction weakenings still verify -- by design.

    Adding an allowed edge to ``initial`` relaxes it, and the hardening
    step's embedding check is monotone in the source: a 1-round algorithm
    for the restriction still solves the (now easier) initial problem
    verbatim, so the mutated certificate is a proof of a true statement and
    a sound verifier must accept it.  (Contrast the lower-bound suite, where
    the same mutation breaks the speedup step's exact-match provenance.)
    """
    weakened = copy.deepcopy(upper_payload)
    weakened["initial"]["edge_constraint"].append(_missing_edge(weakened["initial"]))
    check = UpperBoundCertificate.from_dict(weakened).verify()
    assert check.valid and check.bound == 1


def test_upper_version_is_schema_metadata(upper_payload):
    """Like the lower-bound payload, version is ignored by construction."""
    relabeled = copy.deepcopy(upper_payload)
    relabeled["version"] = 999
    rebuilt = UpperBoundCertificate.from_dict(relabeled)
    assert rebuilt == UpperBoundCertificate.from_dict(upper_payload)
    assert rebuilt.verify().valid
