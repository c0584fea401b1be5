"""The automatic speedup: derive ``Pi_{1/2}`` and ``Pi_1`` from ``Pi``.

This module implements the paper's Section 4.1 (the derivation behind
Theorem 1) and Section 4.2 (the maximality simplification, Theorem 2).

The derivation has two dual steps.

**Half step** ``Pi -> Pi_{1/2}``: output labels become *sets* of original
labels; the edge constraint becomes universal (Property 1: every pair of
choices must be allowed) and the node constraint becomes existential
(Property 2: some choice per set must form an allowed configuration).
Under the maximality simplification (Property 5), the usable labels are
exactly the Galois-*closed* sets ``Y = comp(comp(Y))`` and the edge
constraint collapses to the pairs ``{Y, comp(Y)}`` -- this is what
:mod:`repro.core.galois` computes.

**Full step** ``Pi_{1/2} -> Pi_1``: labels become sets of half-step labels;
now the edge constraint is existential (Property 3) and the node constraint
universal (Property 4), maximised under Property 6.  Because the half-step
node constraint is monotone in the subset order on half-labels, every
maximal node configuration of ``Pi_1`` uses only *upward-closed* sets
(filters) of the half-label poset, and the universal check only needs each
filter's minimal elements -- the same representation trick the Round
Eliminator uses.

Since PR 3 the whole derivation runs on the bitmask kernel
(:mod:`repro.core.alphabet`): label sets are interned Python ints, subset
tests are single ``&``/``~`` expressions, the filter poset is a pair of
``up``/``down`` mask tables, realizability matchings run on per-configuration
position masks, and candidate node configurations are *searched* -- a pruned
DFS for the half step, and prefix-plus-maximal-completion for the simplified
full step -- rather than exhaustively enumerated.  The size guards keep the
string path's a-priori semantics (the grid bound doubles as a guard on the
size of the problem the step would materialise), so the kernel is equivalent
to the legacy path *including* its ``EngineLimitError`` behavior; within the
guards it is orders of magnitude faster.  The string surface -- problems,
meanings, derived label names -- is unchanged; the test-only oracle
``tests/_legacy.py`` preserves the original frozenset path and the
differential tests assert exact result equality.

Both the simplified (Theorem 2) and the literal unsimplified (Theorem 1)
derivations are provided; the latter blows up quickly and is intended for
the small instances used by the executable Theorem 1 experiments.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, product
from time import perf_counter
from typing import Any

import numpy

from repro.core.alphabet import (
    Alphabet,
    intern,
    mask_matching_exists,
    set_label_name,
    short_names,
)
from repro.core.galois import Compatibility

# Re-exported from its dependency-free home (repro.core.limits) so the
# Galois layer can raise it too; this module remains the public import site.
from repro.core.limits import EngineLimitError
from repro.core.problem import EdgeRelation, Label, Problem, edge_config, node_config
from repro.core.vectorkernel import (
    AllowsTable,
    KernelStats,
    existential_edge_matrix,
    unpack_masks,
)

__all__ = [
    "EngineLimitError",
    "HalfStepResult",
    "KernelStats",
    "SpeedupResult",
    "MAX_DERIVED_LABELS",
    "MAX_CANDIDATE_CONFIGS",
    "MAX_LIVE_CONFIGS",
    "set_label_name",
    "short_names",
    "half_step",
    "full_step",
    "compute_speedup",
    "speedup",
    "iterate_speedup",
]


# Default caps keeping accidental exponential blow-ups debuggable instead of
# hanging the interpreter.  They are the defaults of
# :class:`repro.engine.EngineConfig`; the derivation functions below accept
# per-call overrides so an :class:`repro.engine.Engine` can be configured
# without touching module state.  In kernel terms: ``max_derived_labels``
# bounds the interned derived-label masks materialised (filters of the
# half-label poset; raw subset masks on the Theorem 1 path).
# ``max_candidate_configs`` bounds candidate-configuration *work*: the
# half step and the unsimplified (Theorem 1) full step keep the historical
# a-priori grid bound ``C(candidates + delta - 1, delta)``, while the
# simplified full step streams its enumeration and charges the cap
# incrementally per prefix extension and per completion, so huge grids are
# attempted -- and only genuinely long enumerations are refused.
# ``max_live_configs`` is the streaming full step's *memory* cap: it bounds
# the undominated candidate-configuration frontier actually held live (and
# with it the derived problem's node constraint), replacing the retired
# a-priori materialisation guard.
MAX_DERIVED_LABELS = 100_000
MAX_CANDIDATE_CONFIGS = 8_000_000
MAX_LIVE_CONFIGS = 1_000_000

#: ``AllowsTable`` packs the positions of a node configuration into
#: ``uint16``, so larger degrees complete prefixes with the scalar matching.
_ALLOWS_TABLE_MAX_DELTA = 16


@dataclass(frozen=True)
class HalfStepResult:
    """The derived problem ``Pi_{1/2}`` plus the meaning of its labels."""

    original: Problem
    problem: Problem
    meaning: dict[Label, frozenset[Label]]
    simplified: bool

    def polar_name(self, label: Label) -> Label:
        """Name of ``comp(meaning(label))`` -- the partner in a maximal edge pair."""
        comp = Compatibility(self.original)
        return set_label_name(comp.polar(self.meaning[label]))

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "original": self.original.to_dict(),
            "problem": self.problem.to_dict(),
            "meaning": {name: sorted(members) for name, members in sorted(self.meaning.items())},
            "simplified": self.simplified,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "HalfStepResult":
        return HalfStepResult(
            original=Problem.from_dict(data["original"]),
            problem=Problem.from_dict(data["problem"]),
            meaning={
                name: frozenset(members) for name, members in data["meaning"].items()
            },
            simplified=data["simplified"],
        )


@dataclass(frozen=True)
class SpeedupResult:
    """One full application of the speedup: ``Pi -> Pi_{1/2} -> Pi_1``.

    ``full`` carries short atomic labels (ready for iteration);
    ``full_meaning`` maps each of them to the set of half-step label names it
    stands for, and ``half_meaning`` maps half-step names to sets of original
    labels, so provenance is recoverable across iterations.
    """

    original: Problem
    half: Problem
    half_meaning: dict[Label, frozenset[Label]]
    full: Problem
    full_meaning: dict[Label, frozenset[Label]]
    simplified: bool

    def full_label_as_original_sets(self, label: Label) -> frozenset[frozenset[Label]]:
        """Expand a derived label to its set-of-sets over the original alphabet."""
        return frozenset(
            frozenset(self.half_meaning[half_name])
            for half_name in self.full_meaning[label]
        )

    @property
    def kernel_stats(self) -> KernelStats | None:
        """Per-fold timing counters for the derivation that built this result.

        Present only on freshly computed results (attached out-of-band via
        the instance ``__dict__`` by :func:`full_step`); ``None`` on results
        rebuilt from JSON, unpickled, or returned from a cache.  Wall-clock
        numbers deliberately stay out of ``to_dict`` / equality / pickles so
        the result payload remains byte-deterministic.
        """
        return self.__dict__.get("_kernel_stats")

    def __reduce__(self) -> tuple[object, ...]:
        """Pickle via plain dict meanings.

        Cache hits carry ``MappingProxyType`` meaning views (the cache's
        poisoning guard), which cannot cross a pickle boundary; a process
        pool shipping results would crash on exactly the cached ones.  The
        unpickled copy holds plain dicts -- it lives in another process, so
        read-only views would guard nothing there anyway.
        """
        return (
            SpeedupResult,
            (
                self.original,
                self.half,
                dict(self.half_meaning),
                self.full,
                dict(self.full_meaning),
                self.simplified,
            ),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`).

        This is the payload stored by the engine's on-disk cache and emitted
        by ``python -m repro speedup --json``.
        """
        return {
            "original": self.original.to_dict(),
            "half": self.half.to_dict(),
            "half_meaning": {
                name: sorted(members)
                for name, members in sorted(self.half_meaning.items())
            },
            "full": self.full.to_dict(),
            "full_meaning": {
                name: sorted(members)
                for name, members in sorted(self.full_meaning.items())
            },
            "simplified": self.simplified,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SpeedupResult":
        return SpeedupResult(
            original=Problem.from_dict(data["original"]),
            half=Problem.from_dict(data["half"]),
            half_meaning={
                name: frozenset(members)
                for name, members in data["half_meaning"].items()
            },
            full=Problem.from_dict(data["full"]),
            full_meaning={
                name: frozenset(members)
                for name, members in data["full_meaning"].items()
            },
            simplified=data["simplified"],
        )


class _MaskMembership:
    """Memoised membership test for the existential constraint ``h_{1/2}``.

    A tuple of label-set *masks* ``(Y_1, ..., Y_j)`` (``j <= delta``) is
    *extendable* iff some allowed configuration ``C`` of the original problem
    can assign a distinct position of ``C`` to every slot, with slot ``i``
    receiving a label from ``Y_i``; for ``j == delta`` this is exactly
    membership in ``h_{1/2}`` (Property 2).  Each test reduces to a tiny
    bipartite matching over per-configuration position masks; results are
    memoised under the (numerically sorted, hence canonical) mask tuple.
    """

    def __init__(self, problem: Problem):
        interned = intern(problem)
        self._delta = problem.delta
        self._supports = interned.config_supports
        self._position_masks = interned.config_position_masks
        self._cache: dict[tuple[int, ...], bool] = {}

    def extendable(self, slots: Sequence[int]) -> bool:
        key = tuple(sorted(slots))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._any_realizable(key)
        self._cache[key] = result
        return result

    def allows(self, slots: Sequence[int]) -> bool:
        """Full membership: requires exactly ``delta`` slots."""
        if len(slots) != self._delta:
            return False
        return self.extendable(slots)

    def _any_realizable(self, slots: tuple[int, ...]) -> bool:
        position_masks = self._position_masks
        for config_index, support in enumerate(self._supports):
            positions = position_masks[config_index]
            slot_positions = []
            realizable = True
            for slot in slots:
                overlap = slot & support
                if not overlap:
                    realizable = False
                    break
                allowed = 0
                while overlap:
                    low = overlap & -overlap
                    allowed |= positions[low.bit_length() - 1]
                    overlap ^= low
                slot_positions.append(allowed)
            # Memoised behind ``extendable``'s cache: amortised-constant
            # per distinct slot tuple, so scalar matching is fine here.
            if realizable and mask_matching_exists(  # relint: allow[unbatched-matching]
                slot_positions
            ):
                return True
        return False


def half_step(
    problem: Problem,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
    stats: KernelStats | None = None,
) -> HalfStepResult:
    """Derive ``Pi_{1/2}`` (simplified: ``Pi'_{1/2}``) from ``Pi``.

    With ``simplify=True`` the maximality constraint of Theorem 2
    (Property 5) is applied, so labels are the usable Galois-closed sets and
    the edge constraint pairs each closed set with its polar.  With
    ``simplify=False`` the literal Theorem 1 construction is used: labels are
    all non-empty subsets and the edge constraint contains every universally
    compatible pair.  (The empty set is omitted: the existential node
    constraint can never use it, so it is unusable by definition.)
    """
    interned = intern(problem)
    alphabet = interned.alphabet
    comp = Compatibility(problem)
    if simplify:
        # The closed-set enumeration is the one derivation phase whose size
        # is unknowable a priori; the limit aborts it incrementally (search
        # states with thousand-label alphabets would otherwise hang here
        # instead of failing fast).
        started = perf_counter()
        half_masks = sorted(
            comp.usable_closed_masks(limit=max_derived_labels),
            key=alphabet.indices,
        )
        if stats is not None:
            stats.closed_sets_s += perf_counter() - started
    else:
        base_size = alphabet.size
        # The raw construction materialises all subsets AND a quadratic edge
        # relation over them; guard both.
        if 2**base_size > max_derived_labels:
            raise EngineLimitError(
                f"unsimplified half step over {base_size} labels materialises "
                f"{2 ** base_size} subset labels",
                limit_name="max_derived_labels",
                limit=max_derived_labels,
                observed=2**base_size,
            )
        if 4**base_size > max_candidate_configs:
            raise EngineLimitError(
                f"unsimplified half step over {base_size} labels materialises "
                f"a {4 ** base_size}-pair edge relation",
                limit_name="max_candidate_configs",
                limit=max_candidate_configs,
                observed=4**base_size,
            )
        half_masks = list(range(1, alphabet.full_mask + 1))

    name_of_mask = {mask: alphabet.mask_name(mask) for mask in half_masks}
    meaning = {name: alphabet.label_set(mask) for mask, name in name_of_mask.items()}
    meaning_mask = {name: mask for mask, name in name_of_mask.items()}

    if simplify:
        edge_configs = {
            edge_config(
                name_of_mask[mask],
                alphabet.mask_name(comp.polar_mask(mask)),
            )
            for mask in half_masks
        }
    else:
        edge_configs = set()
        for first in half_masks:
            polar_of_first = comp.polar_mask(first)
            for second in half_masks:
                if second & ~polar_of_first == 0:
                    edge_configs.add(
                        edge_config(name_of_mask[first], name_of_mask[second])
                    )

    membership = _MaskMembership(problem)
    ordered_names = sorted(meaning)
    slot_masks = [meaning_mask[name] for name in ordered_names]
    candidate_count = _multiset_count(len(ordered_names), problem.delta)
    if candidate_count > max_candidate_configs:
        raise EngineLimitError(
            f"half step would enumerate {candidate_count} node configurations",
            limit_name="max_candidate_configs",
            limit=max_candidate_configs,
            observed=candidate_count,
        )
    node_configs = _search_existential_configs(
        ordered_names, slot_masks, problem.delta, membership
    )

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
    max_live_configs: int = MAX_LIVE_CONFIGS,
    stats: KernelStats | None = None,
) -> SpeedupResult:
    """Derive ``Pi_1`` (simplified: ``Pi'_1``) from a half-step result.

    The returned :class:`SpeedupResult` carries the derived problem's
    provenance (``full_meaning`` maps each short label of ``full`` to the
    set of half labels it stands for) and the renamed short-label problem
    (``full``), which is what iteration consumes.

    On the simplified (Theorem 2) path the candidate-configuration
    enumeration is *streaming*: prefix completions are generated lazily and
    fed through an on-the-fly domination frontier, so there is no a-priori
    ``C(candidates + delta - 1, delta)`` refusal -- ``max_candidate_configs``
    charges enumeration work incrementally and ``max_live_configs`` caps the
    undominated frontier actually held in memory.  The unsimplified
    (Theorem 1) path keeps the historical a-priori grid guard.  Results
    are identical for every limit setting that does not trip.
    """
    half_problem = half.problem
    meaning = half.meaning
    original_alphabet = intern(half.original).alphabet
    membership = _MaskMembership(half.original)
    if stats is None:
        stats = KernelStats()

    # Intern the half alphabet: half labels get their own bit positions, and
    # each gets its meaning as a mask over the *original* alphabet.
    half_alphabet = Alphabet(half_problem.labels)
    half_count = half_alphabet.size
    meaning_masks = [
        original_alphabet.mask(meaning[name]) for name in half_alphabet.names
    ]

    # The subset order on meanings, as mask tables over the half alphabet:
    # up[i] = labels j with meaning(i) <= meaning(j), down[i] the converse.
    up = [0] * half_count
    down = [0] * half_count
    for i in range(half_count):
        mi = meaning_masks[i]
        for j in range(half_count):
            if mi & ~meaning_masks[j] == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    comparable = [up[i] | down[i] for i in range(half_count)]

    if simplify:
        started = perf_counter()
        candidate_masks = _enumerate_filters(
            half_count, up, comparable, max_derived_labels
        )
        stats.enumeration_s += perf_counter() - started
    else:
        if 2**half_count > max_derived_labels:
            raise EngineLimitError(
                f"unsimplified full step over {half_count} labels "
                f"materialises {2 ** half_count} subset labels",
                limit_name="max_derived_labels",
                limit=max_derived_labels,
                observed=2**half_count,
            )
        candidate_masks = list(range(1, (1 << half_count)))
    candidate_masks.sort(key=half_alphabet.indices)

    # The universal node check (Property 4) only needs the minimal elements of
    # each candidate set: h_{1/2} is monotone under the half-label order.
    mins = {
        candidate: tuple(
            i
            for i in half_alphabet.indices(candidate)
            if down[i] & candidate == 1 << i
        )
        for candidate in candidate_masks
    }

    universal_cache: dict[tuple[int, ...], bool] = {}

    def universal(config_masks: tuple[int, ...]) -> bool:
        key = tuple(sorted(config_masks))
        cached = universal_cache.get(key)
        if cached is not None:
            return cached
        result = all(
            # Memoised per sorted config key; min-choice fans are tiny.
            membership.allows(  # relint: allow[unbatched-matching]
                [meaning_masks[i] for i in choice]
            )
            for choice in product(*(mins[candidate] for candidate in key))
        )
        universal_cache[key] = result
        return result

    def extendable(config_masks: tuple[int, ...]) -> bool:
        """Prune: every min-choice of a partial configuration must extend."""
        return all(
            membership.extendable([meaning_masks[i] for i in choice])
            for choice in product(*(mins[candidate] for candidate in config_masks))
        )

    delta = half_problem.delta
    if simplify:
        # Only the *maximal* universal configurations survive Property 6, and
        # each one is the completion of its own (delta-1)-prefix: the last
        # component is forced to be the up-closure of the jointly-allowed
        # half labels.  Enumerating prefixes plus completions drops a whole
        # exponent from the search compared to walking every delta-tuple --
        # and the completions *stream* through a domination frontier, so the
        # historical a-priori grid refusal is retired on this path: memory is
        # bounded by the surviving frontier (``max_live_configs``) and time
        # by the incremental work charge (``max_candidate_configs``).
        allows_table = None
        if delta <= _ALLOWS_TABLE_MAX_DELTA:
            interned_original = intern(half.original)
            allows_table = AllowsTable(
                delta,
                interned_original.config_supports,
                interned_original.config_position_masks,
                meaning_masks,
                original_alphabet.size,
            )
        frontier = _MaskFrontier(max_live_configs)
        _stream_maximal_configs(
            candidate_masks,
            delta,
            mins,
            meaning_masks,
            membership,
            up,
            half_count,
            extendable,
            half_alphabet.indices,
            allows_table,
            frontier,
            max_candidate_configs,
            stats,
        )
        allowed_configs = frontier.survivors()
        stats.frontier_peak = max(stats.frontier_peak, frontier.peak)
    else:
        # The unsimplified (Theorem 1) path keeps the historical a-priori
        # grid bound: it needs *every* universal configuration, so the grid
        # really is the work and the materialised output.
        candidate_count = _multiset_count(len(candidate_masks), delta)
        if candidate_count > max_candidate_configs:
            raise EngineLimitError(
                f"full step would enumerate {candidate_count} node configurations",
                limit_name="max_candidate_configs",
                limit=max_candidate_configs,
                observed=candidate_count,
            )
        allowed_configs = _enumerate_universal_configs(
            candidate_masks, delta, universal, extendable
        )

    # Edge constraint (Property 3, existential).  Simplified: {W, X} allowed
    # iff some Y in W has its polar partner in X.  Unsimplified: some pair
    # (Y, Z) with Z a subset of comp(Y).  Both collapse to one precomputed
    # "partner bits" mask per candidate: the pair is allowed iff the partner
    # bits of one side intersect the other side.
    comp = Compatibility(half.original)
    mask_to_bit = {mask: 1 << i for i, mask in enumerate(meaning_masks)}
    partner_bits = [0] * half_count
    for i in range(half_count):
        polar = comp.polar_mask(meaning_masks[i])
        if simplify:
            # The polar partner participates only if it is itself a half label.
            partner_bits[i] = mask_to_bit.get(polar, 0)
        else:
            bits = 0
            for j in range(half_count):
                if meaning_masks[j] & ~polar == 0:
                    bits |= 1 << j
            partner_bits[i] = bits

    # Materialise the derived problem *directly* at index level: the historic
    # path built a full-size intermediate problem with ``{...}`` set-name
    # labels, compressed it, then renamed it -- three constructions (and three
    # validations) of a problem whose edge relation can run to tens of
    # millions of pairs.  The index-level pipeline below replays the exact
    # same steps (existential pair relation, ``compressed()`` fixpoint,
    # set-name sort, ``short_names`` rename) but builds the final short-name
    # problem once, which is where most of the wall clock of big derivations
    # went.  Byte equality with the historic construction is asserted by the
    # differential suite.
    started = perf_counter()
    used_masks = sorted(
        {candidate for config in allowed_configs for candidate in config},
        key=half_alphabet.indices,
    )
    used_count = len(used_masks)
    index_of = {candidate: index for index, candidate in enumerate(used_masks)}
    partner_union = []
    for candidate in used_masks:
        bits = 0
        remaining = candidate
        while remaining:
            low = remaining & -remaining
            bits |= partner_bits[low.bit_length() - 1]
            remaining ^= low
        partner_union.append(bits)
    # Components arrive sorted by the half-alphabet key used_masks is sorted
    # by, so the index tuples are canonical (non-decreasing) multisets.
    node_index_configs = [
        tuple(index_of[candidate] for candidate in config)
        for config in allowed_configs
    ]

    # The edge relation stays one boolean row per used label (entry j of
    # row i: the pair {i, j} has an existential witness) through the
    # compressed() fixpoint and the rename; only the final rows, permuted
    # into the derived alphabet's order, are kept.  The rows are symmetric
    # without a second pass: partner bits follow the Galois connection
    # (Z is in comp(Y) iff Y is in comp(Z), and closed half labels are each
    # other's polar partners), so either orientation witnesses the pair.
    hits = existential_edge_matrix(used_masks, partner_union, half_count)
    # The compressed() fixpoint: usable = mentioned in both relations;
    # dropping labels invalidates configurations, so iterate.
    alive = numpy.ones(used_count, dtype=bool)
    in_edges = hits.any(axis=1)
    while True:
        in_nodes = numpy.zeros(used_count, dtype=bool)
        if node_index_configs:
            in_nodes[
                numpy.fromiter(chain.from_iterable(node_index_configs), dtype=numpy.int64)
            ] = True
        usable = in_edges & in_nodes
        if numpy.array_equal(usable, alive):
            break
        alive = usable
        in_edges = hits[:, alive].any(axis=1) & alive
        node_index_configs = [
            config
            for config in node_index_configs
            if all(alive[index] for index in config)
        ]
    surviving = numpy.nonzero(alive)[0].tolist()

    # Rename to short atomic labels for iteration; keep provenance.  The
    # fresh names avoid the original problem's own labels so a derived label
    # can never shadow a pre-existing user label (e.g. an input that already
    # uses ``A``); the rename order is the string sort of the set names,
    # exactly as the historic construction sorted the intermediate labels.
    set_name_of = {
        index: half_alphabet.mask_name(used_masks[index]) for index in surviving
    }
    ordered = sorted(set_name_of.values())
    rename = dict(zip(ordered, short_names(len(ordered), avoid=half.original.labels)))
    short_of = {index: rename[set_name_of[index]] for index in surviving}

    node_constraint = frozenset(
        node_config(short_of[index] for index in config)
        for config in node_index_configs
    )
    # One mask per derived label, in the derived alphabet's (sorted name)
    # order, over bit positions in that same order.
    order = sorted(surviving, key=short_of.__getitem__)
    masks: list[int] = []
    if order:
        positions = numpy.array(order, dtype=numpy.intp)
        masks = unpack_masks(
            numpy.packbits(hits[numpy.ix_(positions, positions)], axis=1, bitorder="little")
        )
    del hits
    edge_constraint = EdgeRelation(
        tuple(short_of[index] for index in order), tuple(masks)
    )

    # Canonical by construction (adjacency over the sorted fresh names, node
    # tuples sorted, labels freshly minted), so take the trusted constructor
    # and skip re-validating what can be hundreds of thousands of pairs.
    renamed = Problem._from_canonical(
        name=f"{half.original.name}+1",
        delta=delta,
        labels=frozenset(short_of.values()),
        edge_constraint=edge_constraint,
        node_constraint=node_constraint,
    )
    full_meaning = {
        rename[set_name_of[index]]: half_alphabet.label_set(used_masks[index])
        for index in surviving
    }
    stats.materialise_s += perf_counter() - started
    result = SpeedupResult(
        original=half.original,
        half=half_problem,
        half_meaning=dict(half.meaning),
        full=renamed,
        full_meaning=full_meaning,
        simplified=simplify and half.simplified,
    )
    result.__dict__["_kernel_stats"] = stats
    return result


def compute_speedup(
    problem: Problem,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
    max_live_configs: int = MAX_LIVE_CONFIGS,
) -> SpeedupResult:
    """The raw (uncached) derivation ``Pi -> Pi_{1/2} -> Pi_1``.

    This is the computational core behind :func:`speedup` and
    :meth:`repro.engine.Engine.speedup`; it never consults a cache.  The
    per-fold timing breakdown is attached as
    :attr:`SpeedupResult.kernel_stats`.
    """
    stats = KernelStats()
    half = half_step(
        problem,
        simplify=simplify,
        max_derived_labels=max_derived_labels,
        max_candidate_configs=max_candidate_configs,
        stats=stats,
    )
    return full_step(
        half,
        simplify=simplify,
        max_derived_labels=max_derived_labels,
        max_candidate_configs=max_candidate_configs,
        max_live_configs=max_live_configs,
        stats=stats,
    )


def speedup(problem: Problem, simplify: bool = True) -> SpeedupResult:
    """Apply one full speedup step: ``Pi -> Pi_1`` (Theorem 1 / Theorem 2).

    The derived problem is exactly one round easier than ``Pi`` on
    t-independent graph classes of girth at least ``2t + 2`` (with edge
    orientations available when ``simplify=True``, per Theorem 2).

    Compatibility shim: delegates to the process-wide default
    :class:`repro.engine.Engine`, so repeated derivations of the same (or a
    label-renamed) problem hit the content-addressed cache.  Use an explicit
    engine for custom limits or cache policy.
    """
    from repro.engine import get_default_engine

    return get_default_engine().speedup(problem, simplify=simplify)


def iterate_speedup(
    problem: Problem, steps: int, simplify: bool = True
) -> list[SpeedupResult]:
    """Apply the speedup ``steps`` times, returning every intermediate result.

    Compatibility shim over :meth:`repro.engine.Engine.iterate_speedup`.
    """
    from repro.engine import get_default_engine

    return get_default_engine().iterate_speedup(problem, steps, simplify=simplify)


# -- internal helpers -------------------------------------------------------


def _multiset_count(universe: int, size: int) -> int:
    """Number of multisets of ``size`` elements over ``universe`` symbols."""
    from math import comb

    return comb(universe + size - 1, size)


def _search_existential_configs(
    ordered_names: list[Label],
    slot_masks: list[int],
    delta: int,
    membership: _MaskMembership,
) -> list[tuple[Label, ...]]:
    """DFS for the half step's node constraint with extendability pruning.

    Enumerates non-decreasing name tuples (canonical multisets) but prunes
    any prefix whose slot masks already fail the extendability test, so the
    work tracks the viable part of the space instead of the full
    ``C(n + delta - 1, delta)`` grid the string path walked.  At depth
    ``delta`` extendability *is* membership, so no re-check is needed at the
    leaves.
    """
    results: list[tuple[Label, ...]] = []
    count = len(ordered_names)
    chosen_masks: list[int] = []
    chosen_names: list[Label] = []

    def extend(start: int) -> None:
        if len(chosen_names) == delta:
            results.append(tuple(chosen_names))
            return
        for index in range(start, count):
            chosen_masks.append(slot_masks[index])
            if membership.extendable(chosen_masks):
                chosen_names.append(ordered_names[index])
                extend(index)
                chosen_names.pop()
            chosen_masks.pop()

    extend(0)
    return results


def _enumerate_filters(
    count: int,
    up: list[int],
    comparable: list[int],
    max_derived_labels: int,
) -> list[int]:
    """Enumerate the non-empty filters (up-sets) of the half-label poset.

    Filters are in bijection with non-empty antichains (their minimal
    elements); the DFS walks antichains as bitmasks, accumulating each
    filter as the union of the ``up`` masks of its antichain.  Iterative so
    deep chain posets cannot overflow the recursion limit.
    """
    collected: list[int] = []
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        index, antichain, filter_mask = stack.pop()
        if index == count:
            if antichain:
                collected.append(filter_mask)
                if len(collected) > max_derived_labels:
                    raise EngineLimitError(
                        f"full step over {count} half labels produces "
                        f"more than {max_derived_labels} filters",
                        limit_name="max_derived_labels",
                        limit=max_derived_labels,
                        observed=len(collected),
                    )
            continue
        if not comparable[index] & antichain:
            stack.append((index + 1, antichain | (1 << index), filter_mask | up[index]))
        stack.append((index + 1, antichain, filter_mask))
    return collected


def _enumerate_universal_configs(
    candidates: Sequence[int],
    delta: int,
    universal: Callable[[tuple[int, ...]], bool],
    extendable: Callable[[tuple[int, ...]], bool],
) -> list[tuple[int, ...]]:
    """DFS over non-decreasing candidate indices with extendability pruning.

    Used by the unsimplified (literal Theorem 1) path, which needs *every*
    universal configuration, not just the maximal ones.
    """
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        if len(chosen) == delta:
            config = tuple(chosen)
            if universal(config):
                results.append(config)
            return
        for index in range(start, len(candidates)):
            chosen.append(candidates[index])
            if extendable(tuple(chosen)):
                extend(index)
            chosen.pop()

    extend(0)
    # Deduplicate; candidates are pre-sorted, so each config tuple is already
    # canonical (non-decreasing in the candidate order).
    return sorted(set(results))


def _stream_maximal_configs(
    candidates: Sequence[int],
    delta: int,
    mins: dict[int, tuple[int, ...]],
    meaning_masks: list[int],
    membership: _MaskMembership,
    up: list[int],
    half_count: int,
    extendable: Callable[[tuple[int, ...]], bool],
    sort_key: Callable[[int], object],
    allows_table: AllowsTable | None,
    frontier: _MaskFrontier,
    max_candidate_configs: int,
    stats: KernelStats,
) -> None:
    """Stream universal configurations via prefix completion (simplified path).

    For a fixed (delta-1)-prefix ``(F_1, ..., F_{d-1})`` the last component
    ``G`` of a universal configuration must satisfy ``mins(G) <= U`` where
    ``U`` is the set of half labels ``z`` with every min-choice of the prefix
    plus ``z`` allowed -- so the unique *maximal* completion is the
    up-closure of ``U``.  A maximal universal configuration equals the
    completion of the prefix obtained by deleting any one of its components
    (the completion dominates it componentwise, and maximality forces
    equality), so enumerating all extendable prefixes and completing each
    yields a superset of the maximal configurations consisting of universal
    configurations only; the domination ``frontier`` then keeps exactly the
    maximal set -- the same result the exhaustive delta-tuple walk produces,
    at a whole exponent less work, and *streamed*: each completion is
    filtered on the fly, so memory tracks the undominated frontier instead
    of the full completion multiset.

    ``max_candidate_configs`` is charged incrementally -- one unit per prefix
    extension attempted and per completion computed -- in deterministic DFS
    order.  With an :class:`~repro.core.vectorkernel.AllowsTable` the
    per-completion inner loop evaluates every last label in one batched Hall
    test; without one (``delta > 16``, beyond the table's ``uint16``
    position masks) it walks the memoised matching per label.
    """
    all_labels = (1 << half_count) - 1
    prefix: list[int] = []
    work = 0

    def charge() -> None:
        nonlocal work
        work += 1
        if work > max_candidate_configs:
            raise EngineLimitError(
                f"streaming full step exceeded {max_candidate_configs} "
                f"enumeration steps (prefix extensions plus completions)",
                limit_name="max_candidate_configs",
                limit=max_candidate_configs,
                observed=work,
            )

    def complete() -> None:
        """Compute U for the current prefix and stream its completion."""
        charge()
        started = perf_counter()
        allowed = all_labels
        if allows_table is not None:
            for choice in product(*(mins[candidate] for candidate in prefix)):
                allowed &= allows_table.allowed_last(choice)
                stats.matching_calls += 1
                if not allowed:
                    break
        else:
            for choice in product(*(mins[candidate] for candidate in prefix)):
                base = [meaning_masks[i] for i in choice]
                still_allowed = 0
                remaining = allowed
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    stats.matching_calls += 1
                    if membership.allows(  # relint: allow[unbatched-matching]
                        base + [meaning_masks[low.bit_length() - 1]]
                    ):
                        still_allowed |= low
                allowed = still_allowed
                if not allowed:
                    break
        stats.matching_s += perf_counter() - started
        if not allowed:
            return
        completion = 0
        remaining = allowed
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            completion |= up[low.bit_length() - 1]
        config = tuple(sorted([*prefix, completion], key=sort_key))
        started = perf_counter()
        frontier.insert(config)
        stats.domination_s += perf_counter() - started
        stats.configs_streamed += 1

    def extend(start: int) -> None:
        if len(prefix) == delta - 1:
            complete()
            return
        for index in range(start, len(candidates)):
            charge()
            prefix.append(candidates[index])
            if extendable(tuple(prefix)):
                extend(index)
            prefix.pop()

    extend(0)


class _MaskFrontier:
    """Streaming domination frontier over big-int configuration masks.

    Maintains the maximal antichain of the configurations inserted so far
    under componentwise set containment.  Mutual domination implies
    equality, so the surviving *set* is the unique maximal antichain of the
    stream -- independent of insertion order, which is what makes the
    streaming full step byte-identical to the historic collect-then-filter
    pass.  A strict dominator always has strictly more total
    bits, so only entries with a strictly larger total are dominator
    candidates (and only strictly smaller totals can be evicted), with the
    union-superset and sorted-popcount-profile prefilters skipping almost
    every exact matching test.

    ``max_live`` caps the *live* frontier: the error fires only when the
    undominated set itself -- and with it the derived problem's node
    constraint -- would exceed the cap, never on the raw completion count.

    The fold is scalar by measurement: a numpy frontier took 0.036 s
    against 0.017 s over the eleven cold derivations of the ``derive-cold``
    benchmark workload, and 5.0 s against 2.8 s on weak-2-coloring[3]
    classify.
    """

    def __init__(self, max_live: int):
        self._max_live = max_live
        self._entries: dict[
            tuple[int, ...], tuple[int, tuple[int, ...], int]
        ] = {}
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, config: tuple[int, ...]) -> None:
        entries = self._entries
        if config in entries:
            return
        union = 0
        for component in config:
            union |= component
        popcounts = tuple(
            sorted((component.bit_count() for component in config), reverse=True)
        )
        total = sum(popcounts)
        victims: list[tuple[int, ...]] = []
        for kept_config, (kept_total, kept_pops, kept_union) in entries.items():
            if kept_total > total:
                if union & ~kept_union:
                    continue
                if any(p > q for p, q in zip(popcounts, kept_pops)):
                    continue
                if _config_dominates(kept_config, config):
                    # A frontier member dominating the newcomer excludes any
                    # frontier member dominated by it (the frontier is an
                    # antichain and domination is transitive), so no evictions
                    # can have been collected; drop the newcomer.
                    return
            elif kept_total < total:
                if kept_union & ~union:
                    continue
                if any(q > p for p, q in zip(popcounts, kept_pops)):
                    continue
                if _config_dominates(config, kept_config):
                    victims.append(kept_config)
        for victim in victims:
            del entries[victim]
        entries[config] = (total, popcounts, union)
        if len(entries) > self.peak:
            self.peak = len(entries)
        if len(entries) > self._max_live:
            raise EngineLimitError(
                f"streaming full step holds more than {self._max_live} "
                f"undominated candidate configurations",
                limit_name="max_live_configs",
                limit=self._max_live,
                observed=self._max_live + 1,
            )

    def survivors(self) -> list[tuple[int, ...]]:
        return sorted(self._entries)


def _config_dominates(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """``big`` dominates ``small``: some bijection pairs every component of
    ``small`` with a distinct superset component of ``big`` -- a perfect-
    matching test over position masks."""
    position_masks = []
    for component in small:
        allowed = 0
        for position, candidate in enumerate(big):
            if component & ~candidate == 0:
                allowed |= 1 << position
        if not allowed:
            return False
        position_masks.append(allowed)
    return mask_matching_exists(position_masks)
