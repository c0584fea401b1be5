"""Frozen pre-kernel reference implementations (the string/frozenset path).

PR 3 rewired every derivation hot path onto the bitmask kernel
(:mod:`repro.core.alphabet`).  This module preserves the original
``frozenset[str]``-based implementations *verbatim* as an executable
specification: the differential test suite
(``tests/test_differential_kernel.py``) runs the kernel and this reference
side by side over the full catalog and hundreds of seeded random problems and
asserts exact result equality.

Nothing in the library imports this module at runtime; it exists only for
tests and for auditing.  Do not "optimise" it -- its value is that it stays
byte-for-byte the semantics the paper-facing test suite was validated
against.  The public dataclasses (:class:`~repro.core.speedup.HalfStepResult`,
:class:`~repro.core.speedup.SpeedupResult`,
:class:`~repro.core.zero_round.ZeroRoundWitness`) are shared with the live
modules so results compare with ``==``.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Sequence
from itertools import combinations, product

from repro.core.problem import Label, NodeConfig, Problem, edge_config, node_config
from repro.core.speedup import (
    EngineLimitError,
    HalfStepResult,
    SpeedupResult,
    _multiset_count,
)
from repro.core.zero_round import ZeroRoundWitness
from repro.utils.matching import maximum_bipartite_matching, perfect_matching_exists
from repro.utils.multiset import (
    multiset_difference,
    multisets_of_size,
    submultisets_of_size,
)
from repro.utils.orders import filters as poset_filters
from repro.utils.orders import minimal_elements

MAX_DERIVED_LABELS = 100_000
MAX_CANDIDATE_CONFIGS = 8_000_000


# -- naming (pre-guard: no collision escaping) -------------------------------


def set_label_name(members: Iterable[Label]) -> Label:
    """Legacy display name for a set-valued label (no escaping)."""
    return "{" + ",".join(sorted(members)) + "}"


def short_names(count: int) -> list[Label]:
    """Legacy short label names: A..Z then L26, L27, ... (no avoid set)."""
    letters = list(string.ascii_uppercase)
    if count <= len(letters):
        return letters[:count]
    return letters + [f"L{i}" for i in range(len(letters), count)]


# -- galois ------------------------------------------------------------------


class Compatibility:
    """The original frozenset-based compatibility operator."""

    def __init__(self, problem: Problem):
        self._problem = problem
        self._labels = frozenset(problem.labels)
        self._singleton_polar: dict[Label, frozenset[Label]] = {
            y: frozenset(
                z for z in self._labels if edge_config(y, z) in problem.edge_constraint
            )
            for y in self._labels
        }

    @property
    def problem(self) -> Problem:
        return self._problem

    def polar(self, subset: frozenset[Label]) -> frozenset[Label]:
        result = self._labels
        for y in subset:
            result = result & self._singleton_polar[y]
            if not result:
                break
        return result

    def closure(self, subset: frozenset[Label]) -> frozenset[Label]:
        return self.polar(self.polar(subset))

    def is_closed(self, subset: frozenset[Label]) -> bool:
        return self.closure(subset) == subset

    def closed_sets(self) -> frozenset[frozenset[Label]]:
        generators = set(self._singleton_polar.values())
        generators.add(self._labels)
        closed: set[frozenset[Label]] = set(generators)
        frontier = list(generators)
        while frontier:
            current = frontier.pop()
            for generator in generators:
                candidate = current & generator
                if candidate not in closed:
                    closed.add(candidate)
                    frontier.append(candidate)
        return frozenset(closed)

    def usable_closed_sets(self) -> frozenset[frozenset[Label]]:
        return frozenset(
            candidate
            for candidate in self.closed_sets()
            if candidate and self.polar(candidate)
        )


# -- speedup -----------------------------------------------------------------


class _HalfMembership:
    """The original matching-per-configuration membership test."""

    def __init__(self, problem: Problem):
        self._configs = sorted(problem.node_constraint)
        self._delta = problem.delta
        self._cache: dict[tuple[frozenset[Label], ...], bool] = {}

    def extendable(self, slots: Sequence[frozenset[Label]]) -> bool:
        key = tuple(sorted(slots, key=sorted))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = any(self._partial_realizable(key, config) for config in self._configs)
        self._cache[key] = result
        return result

    def allows(self, slots: Sequence[frozenset[Label]]) -> bool:
        if len(slots) != self._delta:
            return False
        return self.extendable(slots)

    @staticmethod
    def _partial_realizable(
        slots: tuple[frozenset[Label], ...], config: NodeConfig
    ) -> bool:
        adjacency = {
            index: [
                position for position, label in enumerate(config) if label in slot
            ]
            for index, slot in enumerate(slots)
        }
        matching = maximum_bipartite_matching(adjacency)
        return len(matching) == len(slots)


def half_step(
    problem: Problem,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
) -> HalfStepResult:
    """The original ``Pi -> Pi_{1/2}`` derivation (exhaustive enumeration)."""
    comp = Compatibility(problem)
    if simplify:
        half_sets = sorted(comp.usable_closed_sets(), key=sorted)
    else:
        base = sorted(problem.labels)
        if 2 ** len(base) > max_derived_labels:
            raise EngineLimitError(
                f"unsimplified half step over {len(base)} labels materialises "
                f"{2 ** len(base)} subset labels",
                limit_name="max_derived_labels",
                limit=max_derived_labels,
                observed=2 ** len(base),
            )
        if 4 ** len(base) > max_candidate_configs:
            raise EngineLimitError(
                f"unsimplified half step over {len(base)} labels materialises "
                f"a {4 ** len(base)}-pair edge relation",
                limit_name="max_candidate_configs",
                limit=max_candidate_configs,
                observed=4 ** len(base),
            )
        half_sets = [
            frozenset(subset)
            for size in range(1, len(base) + 1)
            for subset in combinations(base, size)
        ]

    names = {subset: set_label_name(subset) for subset in half_sets}
    meaning = {name: subset for subset, name in names.items()}

    if simplify:
        edge_configs = {
            edge_config(names[subset], set_label_name(comp.polar(subset)))
            for subset in half_sets
        }
    else:
        edge_configs = set()
        for first in half_sets:
            polar_of_first = comp.polar(first)
            for second in half_sets:
                if second <= polar_of_first:
                    edge_configs.add(edge_config(names[first], names[second]))

    membership = _HalfMembership(problem)
    ordered_names = sorted(meaning)
    candidate_count = _multiset_count(len(ordered_names), problem.delta)
    if candidate_count > max_candidate_configs:
        raise EngineLimitError(
            f"half step would enumerate {candidate_count} node configurations",
            limit_name="max_candidate_configs",
            limit=max_candidate_configs,
            observed=candidate_count,
        )
    node_configs = [
        config
        for config in multisets_of_size(ordered_names, problem.delta)
        if membership.allows([meaning[name] for name in config])
    ]

    derived = Problem(
        name=f"{problem.name}|half" + ("" if simplify else "|raw"),
        delta=problem.delta,
        labels=frozenset(meaning),
        edge_constraint=frozenset(edge_configs),
        node_constraint=frozenset(node_configs),
    ).compressed()
    kept_meaning = {name: meaning[name] for name in derived.labels}
    return HalfStepResult(
        original=problem, problem=derived, meaning=kept_meaning, simplified=simplify
    )


def full_step(
    half: HalfStepResult,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
) -> SpeedupResult:
    """The original ``Pi_{1/2} -> Pi_1`` derivation (frozenset filters)."""
    half_problem = half.problem
    meaning = half.meaning
    membership = _HalfMembership(half.original)

    def leq(a: Label, b: Label) -> bool:
        return meaning[a] <= meaning[b]

    half_names = sorted(half_problem.labels)
    if simplify:
        collected: list[frozenset[Label]] = []
        for candidate in poset_filters(half_names, leq):
            collected.append(candidate)
            if len(collected) > max_derived_labels:
                raise EngineLimitError(
                    f"full step over {len(half_names)} half labels produces "
                    f"more than {max_derived_labels} filters",
                    limit_name="max_derived_labels",
                    limit=max_derived_labels,
                    observed=len(collected),
                )
        candidate_sets = sorted(collected, key=sorted)
    else:
        if 2 ** len(half_names) > max_derived_labels:
            raise EngineLimitError(
                f"unsimplified full step over {len(half_names)} labels "
                f"materialises {2 ** len(half_names)} subset labels",
                limit_name="max_derived_labels",
                limit=max_derived_labels,
                observed=2 ** len(half_names),
            )
        candidate_sets = [
            frozenset(subset)
            for size in range(1, len(half_names) + 1)
            for subset in combinations(half_names, size)
        ]

    mins = {
        candidate: tuple(sorted(minimal_elements(candidate, leq)))
        for candidate in candidate_sets
    }

    universal_cache: dict[tuple[frozenset[Label], ...], bool] = {}

    def universal(config_sets: tuple[frozenset[Label], ...]) -> bool:
        key = tuple(sorted(config_sets, key=sorted))
        cached = universal_cache.get(key)
        if cached is not None:
            return cached
        result = all(
            membership.allows([meaning[name] for name in choice])
            for choice in product(*(mins[candidate] for candidate in key))
        )
        universal_cache[key] = result
        return result

    def extendable(config_sets: tuple[frozenset[Label], ...]) -> bool:
        return all(
            membership.extendable([meaning[name] for name in choice])
            for choice in product(*(mins[candidate] for candidate in config_sets))
        )

    delta = half_problem.delta
    candidate_count = _multiset_count(len(candidate_sets), delta)
    if candidate_count > max_candidate_configs:
        raise EngineLimitError(
            f"full step would enumerate {candidate_count} node configurations",
            limit_name="max_candidate_configs",
            limit=max_candidate_configs,
            observed=candidate_count,
        )

    allowed_configs = _enumerate_universal_configs(
        candidate_sets, delta, universal, extendable
    )
    if simplify:
        allowed_configs = _discard_dominated(allowed_configs)

    comp = Compatibility(half.original)
    polar_name = {
        name: set_label_name(comp.polar(meaning[name])) for name in half_names
    }
    used_sets = sorted({s for config in allowed_configs for s in config}, key=sorted)
    set_names = {candidate: set_label_name(candidate) for candidate in used_sets}

    edge_configs = set()
    for first in used_sets:
        for second in used_sets:
            if simplify:
                allowed = any(polar_name[y] in second for y in first)
            else:
                allowed = any(
                    meaning[z] <= comp.polar(meaning[y])
                    for y in first
                    for z in second
                )
            if allowed:
                edge_configs.add(edge_config(set_names[first], set_names[second]))

    structured = Problem(
        name=f"{half.original.name}|full" + ("" if simplify else "|raw"),
        delta=delta,
        labels=frozenset(set_names.values()),
        edge_constraint=frozenset(edge_configs),
        node_constraint=frozenset(
            node_config(set_names[s] for s in config) for config in allowed_configs
        ),
    ).compressed()

    ordered = sorted(structured.labels)
    rename = dict(zip(ordered, short_names(len(ordered))))
    renamed = structured.renamed(rename, name=f"{half.original.name}+1")
    name_of_set = {v: k for k, v in set_names.items()}
    full_meaning = {
        rename[structured_name]: frozenset(name_of_set[structured_name])
        for structured_name in ordered
    }
    return SpeedupResult(
        original=half.original,
        half=half_problem,
        half_meaning=dict(half.meaning),
        full=renamed,
        full_meaning=full_meaning,
        simplified=simplify and half.simplified,
    )


def compute_speedup(
    problem: Problem,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
) -> SpeedupResult:
    """The original uncached ``Pi -> Pi_{1/2} -> Pi_1`` derivation."""
    half = half_step(
        problem,
        simplify=simplify,
        max_derived_labels=max_derived_labels,
        max_candidate_configs=max_candidate_configs,
    )
    return full_step(
        half,
        simplify=simplify,
        max_derived_labels=max_derived_labels,
        max_candidate_configs=max_candidate_configs,
    )


def _enumerate_universal_configs(
    candidates: Sequence[frozenset[Label]],
    delta: int,
    universal,
    extendable,
) -> list[tuple[frozenset[Label], ...]]:
    results: list[tuple[frozenset[Label], ...]] = []

    def extend(start: int, chosen: list[frozenset[Label]]) -> None:
        if len(chosen) == delta:
            config = tuple(chosen)
            if universal(config):
                results.append(tuple(sorted(config, key=sorted)))
            return
        for index in range(start, len(candidates)):
            chosen.append(candidates[index])
            if extendable(tuple(chosen)):
                extend(index, chosen)
            chosen.pop()

    extend(0, [])
    unique = sorted(set(results), key=lambda cfg: [sorted(s) for s in cfg])
    return unique


def _discard_dominated(
    configs: list[tuple[frozenset[Label], ...]],
) -> list[tuple[frozenset[Label], ...]]:
    def dominates(a: tuple[frozenset[Label], ...], b: tuple[frozenset[Label], ...]) -> bool:
        adjacency = {
            index: [j for j, big in enumerate(a) if small <= big]
            for index, small in enumerate(b)
        }
        return perfect_matching_exists(adjacency)

    kept: list[tuple[frozenset[Label], ...]] = []
    for config in configs:
        if any(other != config and dominates(other, config) for other in configs):
            continue
        kept.append(config)
    return kept


# -- zero round --------------------------------------------------------------


def zero_round_no_input(problem: Problem) -> ZeroRoundWitness | None:
    """The original no-input triviality test."""
    for config in sorted(problem.node_constraint):
        support = sorted(set(config))
        if all(
            problem.allows_edge(x, y)
            for i, x in enumerate(support)
            for y in support[i:]
        ):
            return ZeroRoundWitness(
                problem_name=problem.name,
                setting="no-input",
                splits={-1: ((), config)},
            )
    return None


def _orientation_splits(problem: Problem, in_degree: int) -> list[tuple[NodeConfig, NodeConfig]]:
    by_signature: dict[tuple[frozenset[Label], frozenset[Label]], tuple[NodeConfig, NodeConfig]] = {}
    for config in sorted(problem.node_constraint):
        for in_part in submultisets_of_size(config, in_degree):
            out_part = multiset_difference(config, in_part)
            signature = (frozenset(in_part), frozenset(out_part))
            by_signature.setdefault(signature, (in_part, out_part))
    return sorted(by_signature.values())


def zero_round_with_orientations(problem: Problem) -> ZeroRoundWitness | None:
    """The original orientation-input DFS over split choices."""
    delta = problem.delta
    per_degree = [_orientation_splits(problem, s) for s in range(delta + 1)]
    if any(not options for options in per_degree):
        return None
    level_order = sorted(range(delta + 1), key=lambda s: len(per_degree[s]))

    chosen: dict[int, tuple[NodeConfig, NodeConfig]] = {}
    failed: set[tuple[int, frozenset[Label], frozenset[Label]]] = set()

    def pair_ok(out_label: Label, in_label: Label) -> bool:
        return edge_config(out_label, in_label) in problem.edge_constraint

    def search(index: int, in_union: frozenset[Label], out_union: frozenset[Label]) -> bool:
        if index == len(level_order):
            return True
        state = (index, in_union, out_union)
        if state in failed:
            return False
        s = level_order[index]
        for in_part, out_part in per_degree[s]:
            new_in_labels = frozenset(in_part) - in_union
            new_out_labels = frozenset(out_part) - out_union
            if not all(
                pair_ok(o, i)
                for o in new_out_labels
                for i in in_union | new_in_labels
            ):
                continue
            if not all(
                pair_ok(o, i)
                for o in out_union
                for i in new_in_labels
            ):
                continue
            chosen[s] = (in_part, out_part)
            if search(index + 1, in_union | new_in_labels, out_union | new_out_labels):
                return True
            del chosen[s]
        failed.add(state)
        return False

    if search(0, frozenset(), frozenset()):
        return ZeroRoundWitness(
            problem_name=problem.name,
            setting="edge-orientations",
            splits=dict(chosen),
        )
    return None


def is_zero_round_solvable(problem: Problem, orientations: bool = True) -> bool:
    if orientations:
        return zero_round_with_orientations(problem) is not None
    return zero_round_no_input(problem) is not None
