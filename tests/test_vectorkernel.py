"""The derivation folds: one implementation each, checked against references.

Every fold of ``half_step`` / ``full_step`` has exactly one implementation
(``repro.core.vectorkernel`` holds the batched Hall query; materialisation's
adjacency rows live in ``repro.core.speedup``).  These tests pin the pieces
the catalog differential suite (``test_differential_kernel.py``) reaches only
indirectly: the batched Hall query against the scalar oracle, the filter
enumeration, the streaming domination frontier, the scalar oracle that
serves ``delta > 16``, masks past 64 bits, limit trips under tight limits,
independence of the bit layout, and the ``kernel`` compatibility surface
the benchmark harness still uses.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import _legacy
from repro.core import vectorkernel as vk
from repro.core.alphabet import intern
from repro.core.galois import Compatibility
from repro.core.canonical import canonical_hash
from repro.core.problem import Problem
from repro.core.speedup import (
    EngineLimitError,
    _enumerate_filters,
    _MaskFrontier,
    _MaskMembership,
    compute_speedup,
)
from repro.engine import Engine, EngineConfig
from repro.problems.catalog import catalog
from repro.utils.multiset import multisets_of_size

REPO_ROOT = Path(__file__).resolve().parents[1]


def random_problem(seed: int) -> Problem:
    """Same generator as ``test_differential_kernel.random_problem``."""
    rng = random.Random(seed)
    delta = rng.choice([1, 2, 2, 3])
    k = rng.randint(2, 3 if delta == 3 else 4)
    labels = [f"x{i}" for i in range(k)]
    pairs = list(multisets_of_size(labels, 2))
    nodes = list(multisets_of_size(labels, delta))
    edge = [p for p in pairs if rng.random() < 0.6] or [rng.choice(pairs)]
    node = [c for c in nodes if rng.random() < 0.5] or [rng.choice(nodes)]
    return Problem.make(f"rnd{seed}", delta, edge, node, labels=labels)


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# -- the kernel compatibility surface -------------------------------------------


def test_resolve_kernel_accepts_only_the_single_tier():
    assert vk.resolve_kernel("auto") == "vector"
    assert vk.resolve_kernel("vector") == "vector"
    with pytest.raises(ValueError, match="scalar kernel tier was removed"):
        vk.resolve_kernel("mask")
    with pytest.raises(ValueError):
        vk.resolve_kernel("gpu")
    assert vk.get_numpy() is numpy


def _imported_modules(*command: str) -> set[str]:
    """The modules a fresh ``python -X importtime`` run of ``command`` imports."""
    process = subprocess.run(
        [sys.executable, "-X", "importtime", *command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in process.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "command", [("-c", "import repro"), ("-m", "repro", "catalog")], ids=["import", "catalog"]
)
def test_numpy_stays_off_the_import_path(command):
    """No derivation fold uses numpy, so neither importing the package nor a
    CLI command loads it; ``get_numpy`` imports it on demand."""
    modules = _imported_modules(*command)
    assert "repro" in modules
    assert not {name for name in modules if name.split(".")[0] == "numpy"}


def test_engine_config_rejects_the_removed_mask_tier():
    with pytest.raises(ValueError, match="scalar kernel tier was removed"):
        EngineConfig(kernel="mask")
    with pytest.raises(ValueError):
        EngineConfig(kernel="gpu")


def test_kernel_vector_and_default_derive_identically():
    problem = catalog()["4-coloring"](2)
    default = Engine(EngineConfig(cache=False)).speedup(problem)
    pinned = Engine(EngineConfig(cache=False, kernel="vector")).speedup(problem)
    assert result_json(pinned) == result_json(default)


def test_kernel_stats_stay_out_of_the_payload():
    result = compute_speedup(random_problem(7))
    assert result.kernel_stats is not None
    assert "kernel" not in result.kernel_stats.to_dict()
    assert "kernel" not in result.to_dict()


#: Fast catalog derivations that fold every phase (closed sets through
#: materialisation) on a cold engine.
FOLD_CASES = [
    ("sinkless-coloring", 5),
    ("3-coloring", 3),
    ("mis", 3),
    ("maximal-matching", 3),
    ("weak-2-coloring", 4),
    ("superweak-2-coloring", 3),
    ("4-coloring", 2),
]


@pytest.mark.parametrize("name, delta", FOLD_CASES)
def test_cold_engine_derivation_reports_kernel_stats(name, delta):
    """A cold ``Engine.speedup`` carries the fold counters of its derivation.

    The engine stores a copy of the fresh result and re-attaches the
    counters to it; every fold time is non-negative, and the domination
    frontier never holds more configurations than were streamed into it.
    """
    result = Engine().speedup(catalog()[name](delta))
    stats = result.kernel_stats
    assert stats is not None
    for fold in ("closed_sets_s", "existential_s", "enumeration_s", "matching_s",
                 "domination_s", "materialise_s"):
        assert getattr(stats, fold) >= 0
        assert stats.to_dict()[fold] >= 0
    # The half step's node-configuration search always runs, so its timer
    # always advances.
    assert stats.existential_s > 0
    assert stats.configs_streamed >= stats.frontier_peak > 0


# -- filter enumeration -------------------------------------------------------


def random_poset(seed: int) -> tuple[int, list[int], list[int]]:
    """A random partial order as (count, up-masks, comparability masks).

    Elements are ordered so that ``i < j`` can only relate ``i`` below
    ``j``; transitivity is closed off by propagating up-sets.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 11)
    up = [1 << i for i in range(count)]
    for i in range(count - 1, -1, -1):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                up[i] |= up[j]
    comparable = list(up)
    for i in range(count):
        for j in range(count):
            if up[j] >> i & 1:
                comparable[i] |= 1 << j
    return count, up, comparable


@pytest.mark.parametrize("seed", range(40))
def test_enumerate_filters_matches_brute_force(seed):
    """Exactly the non-empty up-closed subsets, each once."""
    count, up, comparable = random_poset(seed)
    expected = [
        subset
        for subset in range(1, 1 << count)
        if all(up[i] & ~subset == 0 for i in range(count) if subset >> i & 1)
    ]
    filters = _enumerate_filters(count, up, comparable, 1 << 20)
    assert sorted(filters) == expected


def test_enumerate_filters_multi_word_chain():
    """A 70-element chain: its filters are exactly the 70 up-sets."""
    count = 70
    up = [0] * count
    for i in range(count - 1, -1, -1):
        up[i] = (1 << i) | (up[i + 1] if i + 1 < count else 0)
    comparable = [(1 << count) - 1] * count
    assert sorted(_enumerate_filters(count, up, comparable, 1 << 20)) == sorted(up)


def test_enumerate_filters_trips_one_past_the_limit():
    count, up, comparable = random_poset(3)
    total = len(_enumerate_filters(count, up, comparable, 1 << 20))
    limit = total - 1
    with pytest.raises(EngineLimitError) as trip:
        _enumerate_filters(count, up, comparable, limit)
    assert trip.value.limit_name == "max_derived_labels"
    assert trip.value.observed == limit + 1


# -- the batched Hall query ------------------------------------------------------


def hall_pair(problem: Problem, meaning_masks: list[int]):
    """The batched table and the scalar oracle over the same half labels."""
    table = vk.AllowsTable(intern(problem), meaning_masks)
    return table, _MaskMembership(problem, meaning_masks)


def assert_allowed_next_matches_scalar(
    problem: Problem, meaning_masks: list[int], max_choices: int = 400
) -> None:
    """``allowed_next`` equals the scalar ``extendable`` per candidate, at
    every choice length from 0 to ``delta - 1``."""
    table, scalar = hall_pair(problem, meaning_masks)
    rng = random.Random(len(meaning_masks) * 1000 + problem.delta)
    indices = range(len(meaning_masks))
    for length in range(problem.delta):
        choices = list(multisets_of_size(indices, length))
        if len(choices) > max_choices:
            choices = rng.sample(choices, max_choices)
        for choice in choices:
            shuffled = list(choice)
            rng.shuffle(shuffled)
            base = [meaning_masks[index] for index in shuffled]
            expected = 0
            for label, meaning in enumerate(meaning_masks):
                if scalar.extendable([*base, meaning]):
                    expected |= 1 << label
            assert table.allowed_next(tuple(shuffled)) == expected, (length, choice)
            assert scalar.allowed_next(tuple(shuffled)) == expected


def half_label_masks(problem: Problem) -> list[int]:
    """The half step's candidate labels: the usable Galois-closed sets."""
    return sorted(Compatibility(problem).usable_closed_masks(limit=10_000))


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("name", sorted(catalog()))
def test_allowed_next_matches_scalar_on_catalog(name, delta):
    problem = catalog()[name](delta)
    assert_allowed_next_matches_scalar(problem, half_label_masks(problem))


@pytest.mark.parametrize(
    "name, delta", [("sinkless-coloring", 5), ("weak-2-coloring", 4), ("mis", 6)]
)
def test_allowed_next_matches_scalar_at_higher_degrees(name, delta):
    """Choices of up to ``delta - 1`` slots: Hall over up to 32 subsets."""
    problem = catalog()[name](delta)
    assert_allowed_next_matches_scalar(
        problem, half_label_masks(problem), max_choices=150
    )


@pytest.mark.parametrize("seed", range(0, 200, 4))
def test_allowed_next_matches_scalar_on_random_problem(seed):
    problem = random_problem(seed)
    assert_allowed_next_matches_scalar(problem, half_label_masks(problem))
    # Any label sets, not only closed ones: the query is Hall's condition
    # for arbitrary slots.
    rng = random.Random(seed)
    size = len(problem.labels)
    arbitrary = [rng.randrange(1, 1 << size) for _ in range(6)]
    assert_allowed_next_matches_scalar(problem, arbitrary)


def test_allowed_next_matches_scalar_past_the_word_boundary():
    """70 original labels and 75 half labels: the table's rows and the
    answer masks are wider than one 64-bit word."""
    rng = random.Random(70)
    labels = [f"y{i:02d}" for i in range(70)]
    nodes = {tuple(sorted(rng.sample(labels, 3))) for _ in range(40)}
    nodes |= {(label, label, label) for label in labels[::7]}
    problem = Problem.make(
        "wide-hall", 3, [(a, a) for a in labels], sorted(nodes), labels=labels
    )
    meaning_masks = [1 << i for i in range(70)] + [
        rng.getrandbits(70) | 1 for _ in range(5)
    ]
    assert_allowed_next_matches_scalar(problem, meaning_masks, max_choices=150)
    table, _ = hall_pair(problem, meaning_masks)
    assert table.allowed_next(()).bit_length() > 64


@pytest.mark.parametrize("seed", range(1, 200, 6))
def test_allowed_next_answers_are_up_sets(seed):
    """Realizability is monotone in each slot's meaning, so an allowed half
    label brings every label above it: the full step takes the AND of these
    answers as its completion without an up-closure."""
    problem = random_problem(seed)
    rng = random.Random(seed)
    size = len(problem.labels)
    for meaning_masks in (
        half_label_masks(problem),
        sorted({rng.randrange(1, 1 << size) for _ in range(7)}),
    ):
        if not meaning_masks:
            continue
        up = [
            sum(1 << j for j, above in enumerate(meaning_masks) if below & ~above == 0)
            for below in meaning_masks
        ]
        for hall in hall_pair(problem, meaning_masks):
            for _ in range(25):
                choice = tuple(
                    rng.randrange(len(meaning_masks))
                    for _ in range(rng.randrange(problem.delta))
                )
                allowed = hall.allowed_next(choice)
                for label, above in enumerate(up):
                    if allowed >> label & 1:
                        assert above & ~allowed == 0, (choice, label)


def test_allowed_next_with_no_configurations_or_no_labels_allows_nothing():
    problem = Problem.make("none", 2, [("a", "a")], [], labels=["a", "b"])
    table, scalar = hall_pair(problem, [0b01, 0b10, 0b11])
    for choice in [(), (0,), (2,)]:
        assert table.allowed_next(choice) == scalar.allowed_next(choice) == 0
    table, scalar = hall_pair(random_problem(3), [])
    assert table.allowed_next(()) == scalar.allowed_next(()) == 0


# -- streaming domination frontier --------------------------------------------


def random_configs(seed: int, bit_count: int) -> tuple[int, list[tuple[int, ...]]]:
    rng = random.Random(seed)
    delta = rng.randint(1, 3)
    configs = set()
    for _ in range(rng.randint(1, 60)):
        config = tuple(
            sorted(rng.getrandbits(bit_count) | 1 for _ in range(delta))
        )
        configs.add(config)
    return delta, sorted(configs)


def maximal_antichain(configs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The reference survivors, by the string path's domination filter."""

    def as_sets(config: tuple[int, ...]) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(bit for bit in range(mask.bit_length()) if mask >> bit & 1)
            for mask in config
        )

    by_sets = {as_sets(config): config for config in configs}
    return sorted(by_sets[kept] for kept in _legacy._discard_dominated(list(by_sets)))


def one_total_antichain(
    rng: random.Random, delta: int, bit_count: int, ones: int, size: int
) -> list[tuple[int, ...]]:
    """Distinct configurations whose components all have ``ones`` bits.

    Every configuration has the same total, so no two dominate each other.
    """
    configs: set[tuple[int, ...]] = set()
    while len(configs) < size:
        configs.add(
            tuple(
                sorted(
                    sum(1 << bit for bit in rng.sample(range(bit_count), ones))
                    for _ in range(delta)
                )
            )
        )
    return sorted(configs)


def one_bit_changed(
    rng: random.Random, config: tuple[int, ...], bit_count: int, add: bool
) -> tuple[int, ...] | None:
    """``config`` with one bit added to (or removed from) one component: a
    strict dominator at a larger total, or a dominated one at a smaller."""
    position = rng.randrange(len(config))
    component = config[position]
    bits = [
        bit
        for bit in range(bit_count)
        if (component >> bit & 1) != add and (add or component.bit_count() > 1)
    ]
    if not bits:
        return None
    changed = list(config)
    changed[position] = component ^ (1 << rng.choice(bits))
    return tuple(sorted(changed))


def one_dominant_total(seed: int, bit_count: int) -> list[tuple[int, ...]]:
    """Mostly a one-total antichain, plus strict dominators at larger totals
    and dominated configurations at smaller ones."""
    rng = random.Random(seed)
    antichain = one_total_antichain(rng, rng.randint(1, 3), bit_count, 3, rng.randint(20, 40))
    configs = set(antichain)
    for _ in range(rng.randint(1, 8)):
        for add in (True, False):
            changed = one_bit_changed(rng, rng.choice(antichain), bit_count, add)
            if changed is not None:
                configs.add(changed)
    return sorted(configs)


@pytest.mark.parametrize("bit_count", [10, 70])
@pytest.mark.parametrize("seed", range(15))
def test_frontier_keeps_the_unique_maximal_antichain(seed, bit_count):
    """Survivors are the maximal antichain, whatever the insertion order and
    however often a configuration repeats: on random configurations, and on
    a mostly one-total antichain with strict dominators at larger totals
    and dominated configurations at smaller ones."""
    rng = random.Random(seed)
    for configs in (random_configs(seed, bit_count)[1], one_dominant_total(seed, bit_count)):
        reference = maximal_antichain(configs)
        for _ in range(4):
            order = configs + rng.sample(configs, len(configs) // 2)
            rng.shuffle(order)
            frontier = _MaskFrontier(1 << 20)
            for config in order:
                frontier.insert(config)
            assert frontier.survivors() == reference
            assert len(frontier) == len(reference) <= frontier.peak


def test_frontier_live_cap_trips_one_past_the_cap():
    """Configurations of one total never dominate each other, so the live
    frontier grows one per insertion and the cap fires on insertion
    ``cap + 1``: singletons under a cap of 3, pairs of 4-bit sets under 25."""
    for cap, antichain in [
        (3, [(1 << i,) for i in range(8)]),
        (25, one_total_antichain(random.Random(5), 2, 10, 4, 30)),
    ]:
        frontier = _MaskFrontier(cap)
        for config in antichain[:cap]:
            frontier.insert(config)
        assert len(frontier) == frontier.peak == cap
        with pytest.raises(EngineLimitError) as trip:
            frontier.insert(antichain[cap])
        assert trip.value.limit_name == "max_live_configs"
        assert trip.value.limit == cap
        assert trip.value.observed == cap + 1


# -- end to end against the string path ------------------------------------------


@pytest.mark.parametrize("at_most_one_a", [True, False])
def test_scalar_completion_loop_above_delta_16(at_most_one_a):
    """Above ``delta = 16`` both steps ask the scalar matching oracle
    instead of ``AllowsTable``.  With exactly one ``a`` per node,
    some candidate last labels fail the matching."""
    delta = 17
    nodes = [("a",) + ("b",) * (delta - 1)]
    if at_most_one_a:
        nodes.append(("b",) * delta)
    problem = Problem.make(
        "one-a-17", delta, [("a", "b"), ("b", "b")], nodes, labels=["a", "b"]
    )
    result = compute_speedup(problem)
    assert result.kernel_stats is not None
    assert result.kernel_stats.matching_calls > 0
    assert result_json(result) == result_json(_legacy.compute_speedup(problem))


def test_derivation_past_the_word_boundary_matches_legacy():
    """70 nested closed sets: the half-label masks and partner bits of
    materialisation run past 64 bits."""
    labels = [f"y{i:02d}" for i in range(70)]
    edges = [
        (labels[i], labels[j]) for i in range(70) for j in range(i, 70) if i + j < 70
    ]
    problem = Problem.make(
        "threshold70", 1, edges, [(label,) for label in labels], labels=labels
    )
    result = compute_speedup(problem)
    assert len(result.half.labels) == 70
    assert result_json(result) == result_json(_legacy.compute_speedup(problem))


def test_wide_alphabet_matches_legacy():
    labels = [f"y{i:02d}" for i in range(70)]
    pairs = list(multisets_of_size(labels, 2))
    wide = Problem.make(
        "wide70", 1, pairs, [(label,) for label in labels], labels=labels
    )
    assert result_json(compute_speedup(wide)) == result_json(
        _legacy.compute_speedup(wide)
    )


#: Limit trips under tight limits, recorded from the two-tier implementation
#: (where the scalar and numpy tiers agreed on every one): ``(limit_name,
#: observed)`` per tripping case; ``None`` means the derivation completes.
TIGHT_TRIPS_4_COLORING = {
    "max_derived_labels": (10, ("max_derived_labels", 11)),
    "max_candidate_configs": (3, ("max_candidate_configs", 105)),
    "max_live_configs": (1, ("max_live_configs", 2)),
}
TIGHT_TRIPS_RANDOM = {
    # seed: (outcome at max_derived_labels=6, at max_candidate_configs=2)
    0: (None, ("max_candidate_configs", 4)),
    10: (None, None),
    20: (None, ("max_candidate_configs", 6)),
    30: (("max_derived_labels", 7), ("max_candidate_configs", 10)),
    40: (None, ("max_candidate_configs", 3)),
    50: (None, ("max_candidate_configs", 10)),
    60: (None, ("max_candidate_configs", 6)),
    70: (None, ("max_candidate_configs", 4)),
    80: (None, ("max_candidate_configs", 3)),
    90: (("max_derived_labels", 7), ("max_candidate_configs", 36)),
    100: (("max_derived_labels", 7), ("max_candidate_configs", 6)),
    110: (None, ("max_candidate_configs", 3)),
    120: (None, None),
    130: (None, ("max_candidate_configs", 10)),
    140: (None, None),
    150: (None, ("max_candidate_configs", 3)),
    160: (("max_derived_labels", 7), ("max_candidate_configs", 6)),
    170: (None, ("max_candidate_configs", 10)),
    180: (None, None),
    190: (None, None),
}


def assert_trip(problem: Problem, expected, **limits) -> None:
    """Trip exactly as recorded, or complete identically to the string path."""
    if expected is None:
        assert result_json(compute_speedup(problem, **limits)) == result_json(
            _legacy.compute_speedup(problem)
        )
        return
    with pytest.raises(EngineLimitError) as trip:
        compute_speedup(problem, **limits)
    assert (trip.value.limit_name, trip.value.observed) == expected
    assert trip.value.limit == limits[trip.value.limit_name]


def test_trips_under_tight_limits_match_the_record():
    problem = catalog()["4-coloring"](2)
    for name, (limit, expected) in TIGHT_TRIPS_4_COLORING.items():
        assert_trip(problem, expected, **{name: limit})
    for seed, (by_labels, by_configs) in TIGHT_TRIPS_RANDOM.items():
        assert_trip(random_problem(seed), by_labels, max_derived_labels=6)
        assert_trip(random_problem(seed), by_configs, max_candidate_configs=2)


def test_trip_on_a_164_label_alphabet_matches_the_record():
    derived = compute_speedup(catalog()["4-coloring"](2)).full
    assert len(derived.labels) == 164
    with pytest.raises(EngineLimitError) as trip:
        compute_speedup(derived, max_derived_labels=300)
    assert trip.value.limit_name == "max_derived_labels"
    assert trip.value.observed == 301
    assert str(trip.value) == "half step enumerated more than 300 usable Galois-closed sets"


# -- bit-layout independence -----------------------------------------------------

#: Catalog instances too slow to derive twice in tier-1 (weak/superweak
#: stream millions of completions; 5/6-coloring are minute-scale).
HEAVY = {"5-coloring", "6-coloring", "weak-3-coloring", "superweak-3-coloring"}


def _catalog_instances():
    for name, family in sorted(catalog().items()):
        if name in HEAVY:
            continue
        for delta in (2, 3):
            try:
                yield name, family(delta)
            except ValueError:
                continue


def assert_layout_independent(problem: Problem) -> None:
    """Reversing the labels' sorted order reverses every mask's bit
    order; the derivation must stay isomorphic, or trip identically."""
    ordered = sorted(problem.labels)
    mapping = {label: f"r{len(ordered) - i:03d}" for i, label in enumerate(ordered)}
    mirrored = problem.renamed(mapping, name="mirrored")
    try:
        result = compute_speedup(problem)
    except EngineLimitError as error:
        with pytest.raises(EngineLimitError) as mirrored_error:
            compute_speedup(mirrored)
        assert mirrored_error.value.limit_name == error.limit_name
        assert mirrored_error.value.observed == error.observed
        return
    twin = compute_speedup(mirrored)
    assert canonical_hash(twin.half) == canonical_hash(result.half)
    assert canonical_hash(twin.full) == canonical_hash(result.full)


@pytest.mark.parametrize(
    "name,problem",
    [pytest.param(name, problem, id=f"{name}-d{problem.delta}")
     for name, problem in _catalog_instances()],
)
def test_catalog_derivation_ignores_bit_layout(name, problem):
    assert_layout_independent(problem)


@pytest.mark.parametrize("seed", range(200))
def test_random_derivation_ignores_bit_layout(seed):
    assert_layout_independent(random_problem(seed))
