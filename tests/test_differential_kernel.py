"""Differential tests: the bitmask kernel against the frozen string path.

``tests/_legacy.py`` preserves the pre-kernel ``frozenset[str]``
implementations verbatim.  These tests run both sides over the full catalog
and hundreds of seeded random problems and assert *exact* equality of the
results -- not just isomorphism: the kernel is required to reproduce the
legacy derivations bit for bit (same derived label names, same meanings,
same witnesses, same canonical keys), so caches, goldens and downstream
consumers cannot tell the difference.

The random problems use clean label names on purpose: for labels containing
braces or commas the two paths *should* differ (the legacy naming aliases
distinct sets -- the collision bug the kernel's escaping fixes; see
``test_alphabet.py`` and ``test_speedup.py`` for those regressions).
"""

import random

import pytest

from edge_relations import assert_behaves_as, legacy_edge_relation
import _legacy
from repro.core.canonical import canonical_form, canonical_hash
from repro.core.diagram import merge_equivalent_labels
from repro.core.problem import Problem
from repro.core.relaxation import (
    HARDENS,
    RELAXES,
    is_harder_restriction,
    is_relaxation_map,
)
from repro.core.speedup import EngineLimitError, SpeedupResult, compute_speedup
from repro.core.zero_round import (
    is_zero_round_solvable,
    zero_round_no_input,
    zero_round_with_orientations,
)
from repro.problems.catalog import catalog
from repro.search.moves import (
    ADDARROW,
    DROP,
    HARDEN,
    MERGE,
    MERGE_EQUIVALENTS,
    generate_hardenings,
    generate_moves,
)
from repro.utils.multiset import multisets_of_size

# Catalog instances whose legacy derivation is too slow for tier-1; they run
# in the slow suite instead (and 5/6-coloring exceed even that).
HEAVY = {"4-coloring", "5-coloring", "6-coloring", "superweak-3-coloring", "weak-3-coloring"}

SEED_COUNT = 200


def random_problem(seed: int) -> Problem:
    """A small random problem; biased so the legacy path stays fast."""
    rng = random.Random(seed)
    delta = rng.choice([1, 2, 2, 3])
    k = rng.randint(2, 3 if delta == 3 else 4)
    labels = [f"x{i}" for i in range(k)]
    pairs = list(multisets_of_size(labels, 2))
    nodes = list(multisets_of_size(labels, delta))
    edge = [p for p in pairs if rng.random() < 0.6] or [rng.choice(pairs)]
    node = [c for c in nodes if rng.random() < 0.5] or [rng.choice(nodes)]
    return Problem.make(f"rnd{seed}", delta, edge, node, labels=labels)


def assert_differential(problem: Problem) -> SpeedupResult | None:
    """Kernel == legacy on every rewired decision procedure.

    Equivalence covers the failure mode too: when the legacy path trips a
    size guard, the kernel must trip the same guard with the same observed
    count (the guards keep their a-priori semantics by design).  Returns
    the legacy derivation when there is one.
    """
    legacy_result = None
    try:
        legacy_result = _legacy.compute_speedup(problem)
    except EngineLimitError as legacy_error:
        if str(legacy_error).startswith("full step would enumerate"):
            # The streaming full step retired the legacy a-priori grid
            # refusal: where the reference predicts the candidate grid and
            # gives up, the kernel attempts the derivation under its
            # incremental work / live-frontier caps.  There is no legacy
            # result to compare against, so only require that the kernel
            # either completes or trips one of the streaming limits.
            try:
                compute_speedup(problem)
            except EngineLimitError as kernel_error:
                assert kernel_error.limit_name in (
                    "max_candidate_configs",
                    "max_live_configs",
                )
        else:
            with pytest.raises(EngineLimitError) as kernel_error:
                compute_speedup(problem)
            assert kernel_error.value.limit_name == legacy_error.limit_name
            assert kernel_error.value.observed == legacy_error.observed
    else:
        assert compute_speedup(problem) == legacy_result
    assert zero_round_no_input(problem) == _legacy.zero_round_no_input(problem)
    assert zero_round_with_orientations(problem) == _legacy.zero_round_with_orientations(
        problem
    )
    assert is_zero_round_solvable(problem) == _legacy.is_zero_round_solvable(problem)
    legacy_form = _legacy.canonical_form(problem)
    form = canonical_form(problem)
    assert form.key == legacy_form.key
    assert form.ordering == legacy_form.ordering
    assert canonical_hash(problem) == _legacy.canonical_hash(problem)
    return legacy_result


# -- seeded random problems --------------------------------------------------


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_kernel_matches_legacy_on_random_problem(seed):
    problem = random_problem(seed)
    legacy_result = assert_differential(problem)
    # Derived problems exercise larger alphabets and set-valued names.
    derived = compute_speedup(problem).full
    assert canonical_hash(derived) == _legacy.canonical_hash(derived)
    # The condensed edge relation acts as the string path's set.
    result = compute_speedup(problem)
    reference = legacy_edge_relation(result)
    if legacy_result is not None:
        assert reference == legacy_result.full.edge_constraint
    assert_behaves_as(result.full, reference)


def test_random_problems_are_diverse():
    """The generator actually covers different deltas and alphabet sizes."""
    problems = [random_problem(seed) for seed in range(SEED_COUNT)]
    assert {p.delta for p in problems} == {1, 2, 3}
    assert len({(p.delta, len(p.labels)) for p in problems}) >= 6


# -- mask-native move generation vs the string path ---------------------------
#
# The move generator applies relaxations on the interned bitmask view and
# materialises only the survivors.  These reference implementations apply the
# same moves with plain string rewrites (the pre-mask-native semantics); for
# every generated move, the mask-level application must reproduce the string
# rewrite *exactly* -- same name, same alphabet, same constraints, same map.


def string_merge(problem: Problem, a: str, b: str) -> Problem:
    mapping = {label: (b if label == a else label) for label in problem.labels}
    return Problem.make(
        name=f"{problem.name}|{a}>{b}",
        delta=problem.delta,
        edge_configs=[(mapping[x], mapping[y]) for x, y in problem.edge_constraint],
        node_configs=[
            tuple(mapping[label] for label in config)
            for config in problem.node_constraint
        ],
        labels={mapping[label] for label in problem.labels},
    )


def string_drop(problem: Problem, a: str) -> Problem:
    return problem.restricted(problem.labels - {a}, name=f"{problem.name}|-{a}")


def string_addarrow(problem: Problem, a: str, b: str) -> Problem:
    edges = set(problem.edge_constraint)
    for pair in problem.edge_constraint:
        if a in pair:
            x, y = pair
            edges.add(tuple(sorted((b if x == a else x, b if y == a else y))))
            if x == a and y == a:
                edges.add(tuple(sorted((a, b))))
    nodes = set(problem.node_constraint)
    for config in problem.node_constraint:
        remaining = list(config)
        while a in remaining:
            remaining.remove(a)
            remaining.append(b)
            nodes.add(tuple(sorted(remaining)))
    return Problem.make(
        name=f"{problem.name}|{a}~>{b}",
        delta=problem.delta,
        edge_configs=edges,
        node_configs=nodes,
        labels=problem.labels,
    )


def _collapsed_pair(move) -> tuple[str, str]:
    ((a, b),) = [(x, y) for x, y in move.mapping.items() if x != y]
    return a, b


def assert_moves_match_string_path(problem: Problem) -> None:
    moves = generate_moves(problem, max_moves=256)
    for move in moves:
        assert move.source is problem
        assert is_relaxation_map(problem, move.target, move.mapping)
        certificate = move.certificate()
        assert certificate.direction == RELAXES
        assert certificate.source_name == problem.name
        assert certificate.target_name == move.target.name
        if move.kind == MERGE_EQUIVALENTS:
            expected, expected_mapping = merge_equivalent_labels(problem)
            assert move.mapping == expected_mapping
        elif move.kind == DROP:
            a, b = _collapsed_pair(move)
            expected = string_drop(problem, a)
        elif move.kind == MERGE:
            a, b = _collapsed_pair(move)
            expected = string_merge(problem, a, b)
        elif move.kind == ADDARROW:
            assert move.mapping == {label: label for label in problem.labels}
            a, b = move.detail.split("~>")
            expected = string_addarrow(problem, a, b)
        else:  # pragma: no cover - new kinds must be added to this test
            raise AssertionError(f"unknown move kind {move.kind!r}")
        assert move.target == expected, move.describe()

    for move in generate_hardenings(problem, max_moves=64):
        assert move.kind == HARDEN
        assert is_harder_restriction(problem, move.target)
        assert move.certificate().direction == HARDENS
        expected = problem.restricted(move.target.labels, name=move.target.name)
        assert move.target == expected, move.describe()


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_mask_moves_match_string_path_on_random_problem(seed):
    assert_moves_match_string_path(random_problem(seed))


def test_mask_moves_match_string_path_on_derived_problems():
    """Derived problems have the set-valued names and rich diagrams the
    search actually relaxes; a sample keeps the tier-1 cost bounded."""
    for seed in range(0, SEED_COUNT, 25):
        derived = compute_speedup(random_problem(seed)).full
        assert_moves_match_string_path(derived)


# -- catalog -----------------------------------------------------------------


def _catalog_instances(include_heavy: bool):
    for name, family in sorted(catalog().items()):
        if (name in HEAVY) is not include_heavy:
            continue
        for delta in (2, 3):
            try:
                yield name, family(delta)
            except ValueError:
                continue  # family rejects this degree


@pytest.mark.parametrize(
    "name,problem",
    [pytest.param(name, problem, id=f"{name}-d{problem.delta}")
     for name, problem in _catalog_instances(include_heavy=False)],
)
def test_kernel_matches_legacy_on_catalog(name, problem):
    assert_differential(problem)


@pytest.mark.slow
def test_kernel_matches_legacy_on_heavy_catalog():
    """4-coloring at delta=2: ~10s legacy, milliseconds on the kernel.

    (superweak-3 / weak-3 are beyond the legacy path entirely -- days of
    wall clock inside the guards; 5/6-coloring still trip the legacy grid
    refusal while the streaming kernel computes them -- see
    ``test_speedup.py``.)
    """
    problem = catalog()["4-coloring"](2)
    assert_differential(problem)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(SEED_COUNT, SEED_COUNT + 40))
def test_kernel_matches_legacy_on_larger_random_problems(seed):
    """Denser random problems (delta up to 3, five labels) -- slow for legacy.

    Tighter guards keep the legacy walk bounded; guard trips must agree
    between the paths exactly (same limit, same observed count).
    """
    rng = random.Random(seed)
    delta = rng.randint(2, 3)
    k = rng.randint(3, 5 if delta == 2 else 4)
    labels = [f"x{i}" for i in range(k)]
    pairs = list(multisets_of_size(labels, 2))
    nodes = list(multisets_of_size(labels, delta))
    edge = [p for p in pairs if rng.random() < 0.55] or [rng.choice(pairs)]
    node = [c for c in nodes if rng.random() < 0.45] or [rng.choice(nodes)]
    problem = Problem.make(f"big{seed}", delta, edge, node, labels=labels)
    limits = {"max_derived_labels": 20_000, "max_candidate_configs": 100_000}
    try:
        legacy_result = _legacy.compute_speedup(problem, **limits)
    except EngineLimitError as legacy_error:
        if str(legacy_error).startswith("full step would enumerate"):
            # Retired a-priori grid refusal: the streaming kernel attempts
            # the derivation instead (see ``assert_differential``).
            try:
                compute_speedup(problem, **limits)
            except EngineLimitError as kernel_error:
                assert kernel_error.limit_name in (
                    "max_candidate_configs",
                    "max_live_configs",
                )
        else:
            with pytest.raises(EngineLimitError) as kernel_error:
                compute_speedup(problem, **limits)
            assert kernel_error.value.limit_name == legacy_error.limit_name
            assert kernel_error.value.observed == legacy_error.observed
    else:
        assert compute_speedup(problem, **limits) == legacy_result
