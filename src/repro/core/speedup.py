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
``up``/``down`` mask tables, realizability is Hall's condition over
per-configuration position masks, asked once per search node for every
candidate next label (:class:`~repro.core.vectorkernel.AllowsTable`), and
candidate node configurations are *searched* -- a pruned DFS for the half
step, and prefix-plus-maximal-completion for the simplified full step --
rather than exhaustively enumerated.  The size guards keep the
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

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from operator import gt, lt
from time import perf_counter
from typing import Any

from repro.core.alphabet import (
    Alphabet,
    bit_indices,
    intern,
    mask_matching_exists,
    set_label_name,
    short_names,
)
from repro.core.galois import Compatibility

# Re-exported from its dependency-free home (repro.core.limits) so the
# Galois layer can raise it too; this module remains the public import site.
from repro.core.limits import EngineLimitError
from repro.core.problem import EdgeRelation, Label, Problem, node_config
from repro.core.vectorkernel import AllowsTable, KernelStats

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
# attempted -- and only genuinely long enumerations are refused.  When the
# stream's work might pass the cap, the full step counts that work first
# (without computing a completion) and refuses the step before streaming.
# ``max_live_configs`` is the streaming full step's *memory* cap: it bounds
# the undominated candidate-configuration frontier actually held live (and
# with it the derived problem's node constraint), replacing the retired
# a-priori materialisation guard.
MAX_DERIVED_LABELS = 100_000
MAX_CANDIDATE_CONFIGS = 8_000_000
MAX_LIVE_CONFIGS = 1_000_000

#: ``AllowsTable`` checks Hall's condition over every subset of the slots
#: already chosen, ``2**(delta - 1)`` of them at a full prefix, so larger
#: degrees ask the scalar ``_MaskMembership`` oracle, whose augmenting-path
#: matching is polynomial in ``delta``.
_ALLOWS_TABLE_MAX_DELTA = 16


@dataclass(frozen=True)
class HalfStepResult:
    """The derived problem ``Pi_{1/2}`` plus the meaning of its labels."""

    original: Problem
    problem: Problem
    meaning: dict[Label, frozenset[Label]]
    simplified: bool

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

        Attached out-of-band via the instance ``__dict__`` by
        :func:`full_step`, so present on freshly computed results.
        :meth:`repro.engine.Engine.speedup` copies them onto the stored
        object, so an in-memory cache hit on the identical problem returns
        that object and its stats; a renamed-twin hit (a translated copy), an
        entry loaded from a cache directory, :meth:`from_dict` and
        unpickling give ``None``.  Wall-clock numbers deliberately stay out
        of ``to_dict`` / equality / pickles so the result payload remains
        byte-deterministic.
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
    """The scalar Hall oracle, for degrees above ``_ALLOWS_TABLE_MAX_DELTA``.

    A tuple of label-set *masks* ``(Y_1, ..., Y_j)`` (``j <= delta``) is
    *extendable* iff some allowed configuration ``C`` of the original problem
    can assign a distinct position of ``C`` to every slot, with slot ``i``
    receiving a label from ``Y_i``; for ``j == delta`` this is exactly
    membership in ``h_{1/2}`` (Property 2).  Each test reduces to a tiny
    bipartite matching over per-configuration position masks; results are
    memoised under the (numerically sorted, hence canonical) mask tuple.
    :meth:`allowed_next` asks it once per half label, with the contract of
    :meth:`AllowsTable.allowed_next`.
    """

    def __init__(self, problem: Problem, meaning_masks: Sequence[int]):
        interned = intern(problem)
        self._supports = interned.config_supports
        self._position_masks = interned.config_position_masks
        self._meaning_masks = list(meaning_masks)
        self._cache: dict[tuple[int, ...], bool] = {}
        self._next_cache: dict[tuple[int, ...], int] = {}

    def extendable(self, slots: Sequence[int]) -> bool:
        key = tuple(sorted(slots))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._any_realizable(key)
        self._cache[key] = result
        return result

    def allowed_next(self, choice: tuple[int, ...]) -> int:
        cached = self._next_cache.get(choice)
        if cached is not None:
            return cached
        meaning_masks = self._meaning_masks
        base = [meaning_masks[index] for index in choice]
        mask = 0
        for label, meaning in enumerate(meaning_masks):
            if self.extendable([*base, meaning]):
                mask |= 1 << label
        self._next_cache[choice] = mask
        return mask

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
            # The scalar fallback for delta > 16, memoised behind
            # ``extendable``'s cache.
            if realizable and mask_matching_exists(  # relint: allow[unbatched-matching]
                slot_positions
            ):
                return True
        return False


def _hall_oracle(
    problem: Problem, meaning_masks: Sequence[int]
) -> AllowsTable | _MaskMembership:
    """The Hall query of one derivation step over ``meaning_masks``.

    :class:`AllowsTable` for ``delta <= 16``, the scalar
    :class:`_MaskMembership` beyond it.
    """
    if problem.delta > _ALLOWS_TABLE_MAX_DELTA:
        return _MaskMembership(problem, meaning_masks)
    return AllowsTable(intern(problem), meaning_masks)


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

    # The edge constraint as adjacency rows over the sorted half names.
    ordered_names = sorted(meaning)
    position = {meaning_mask[name]: index for index, name in enumerate(ordered_names)}
    rows = [0] * len(ordered_names)
    for mask in half_masks:
        polar = comp.polar_mask(mask)
        # Simplified, a closed set pairs with its polar (itself a usable
        # closed set); raw, with every subset of its polar.
        partners = [polar] if simplify else [m for m in half_masks if m & ~polar == 0]
        for partner in partners:
            rows[position[mask]] |= 1 << position[partner]
            rows[position[partner]] |= 1 << position[mask]

    candidate_count = _multiset_count(len(ordered_names), problem.delta)
    if candidate_count > max_candidate_configs:
        raise EngineLimitError(
            f"half step would enumerate {candidate_count} node configurations",
            limit_name="max_candidate_configs",
            limit=max_candidate_configs,
            observed=candidate_count,
        )
    started = perf_counter()
    hall = _hall_oracle(problem, [meaning_mask[name] for name in ordered_names])
    node_configs = _search_existential_configs(ordered_names, problem.delta, hall)
    if stats is not None:
        stats.existential_s += perf_counter() - started

    # Canonical by construction (rows over the sorted derived names, node
    # tuples emitted in non-decreasing name order), so skip validation.
    derived = Problem._from_canonical(
        name=f"{problem.name}|half" + ("" if simplify else "|raw"),
        delta=problem.delta,
        labels=frozenset(meaning),
        edge_constraint=EdgeRelation(tuple(ordered_names), tuple(rows)),
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
    undominated frontier actually held in memory.  A step whose work will
    pass ``max_candidate_configs`` before its frontier can pass
    ``max_live_configs`` is refused before any completion is streamed, with
    the error the stream would raise; ``stats`` then keeps its stream
    counters at zero.  The unsimplified (Theorem 1) path keeps the
    historical a-priori grid guard.  Results, and which limit trips with
    which ``observed`` count, are identical for every limit setting.
    """
    half_problem = half.problem
    meaning = half.meaning
    original_alphabet = intern(half.original).alphabet
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
    # Each candidate is decoded to its half-label indices once; the tuple is
    # its sort key, its minimal elements and, for the labels that survive,
    # its set name, adjacency row and meaning.  A candidate's *rank* is its
    # position in this order; configurations are kept as rank-sorted tuples,
    # which is the half-alphabet order.  Distinct masks decode to distinct
    # tuples, so the sort never compares two masks.
    decoded = sorted([(half_alphabet.indices(mask), mask) for mask in candidate_masks])
    candidate_masks = [mask for _, mask in decoded]
    members = [indices for indices, _ in decoded]
    del decoded
    rank_of = {candidate: rank for rank, candidate in enumerate(candidate_masks)}

    # The universal node check (Property 4) only needs the minimal elements of
    # each candidate set: h_{1/2} is monotone under the half-label order.
    mins = [
        tuple([index for index in indices if down[index] & candidate == 1 << index])
        for indices, candidate in zip(members, candidate_masks)
    ]

    hall = _hall_oracle(half.original, meaning_masks)
    delta = half_problem.delta
    if simplify:
        # Only the *maximal* universal configurations survive Property 6, and
        # each one is the completion of its own (delta-1)-prefix: the last
        # component is forced to be the set of jointly-allowed half labels.
        # Enumerating prefixes plus completions drops a whole exponent from
        # the search compared to walking every delta-tuple --
        # and the completions *stream* through a domination frontier, so the
        # historical a-priori grid refusal is retired on this path: memory is
        # bounded by the surviving frontier (``max_live_configs``) and time
        # by the incremental work charge (``max_candidate_configs``), counted
        # ahead of the stream when it might trip.
        frontier = _MaskFrontier(max_live_configs)
        _stream_maximal_configs(
            candidate_masks,
            rank_of,
            delta,
            mins,
            half_count,
            hall,
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
            candidate_masks, delta, mins, half_count, hall
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
    # The used labels, as ranks: rank order is the half-alphabet order the
    # historic construction sorted them by.
    used_ranks = sorted(
        {rank_of[candidate] for config in allowed_configs for candidate in config}
    )
    used_masks = [candidate_masks[rank] for rank in used_ranks]
    used_members = [members[rank] for rank in used_ranks]
    index_of = {candidate: index for index, candidate in enumerate(used_masks)}
    # Components arrive in rank order, so the index tuples are canonical
    # (non-decreasing) multisets.
    node_index_configs = [
        tuple([index_of[candidate] for candidate in config]) for config in allowed_configs
    ]
    config_masks = [_bits_mask(config) for config in node_index_configs]

    # The compressed() fixpoint over an ``alive`` mask of used labels:
    # usable = mentioned in both relations; dropping labels invalidates
    # configurations, so iterate.  The fixpoint needs no adjacency rows:
    # label ``i`` has an edge to an alive label iff it holds a half label
    # whose partner bits meet some alive label.
    alive = (1 << len(used_masks)) - 1
    surviving: Sequence[int] = range(len(used_masks))
    while True:
        covered = 0
        for index in surviving:
            covered |= used_masks[index]
        partnered = 0
        for half_index, bits in enumerate(partner_bits):
            if bits & covered:
                partnered |= 1 << half_index
        in_edges = 0
        for index in surviving:
            if used_masks[index] & partnered:
                in_edges |= 1 << index
        in_nodes = 0
        for mask in config_masks:
            in_nodes |= mask
        usable = in_edges & in_nodes
        if usable == alive:
            break
        alive = usable
        surviving = bit_indices(alive)
        kept = [
            (config, mask)
            for config, mask in zip(node_index_configs, config_masks)
            if mask & ~alive == 0
        ]
        node_index_configs = [config for config, _ in kept]
        config_masks = [mask for _, mask in kept]

    # Rename to short atomic labels for iteration; keep provenance.  The
    # fresh names avoid the original problem's own labels so a derived label
    # can never shadow a pre-existing user label (e.g. an input that already
    # uses ``A``); the rename order is the string sort of the set names,
    # exactly as the historic construction sorted the intermediate labels.
    set_names = [half_alphabet.indices_name(used_members[index]) for index in surviving]
    by_name = sorted(range(len(surviving)), key=set_names.__getitem__)
    short_of = dict(
        zip(
            [surviving[position] for position in by_name],
            short_names(len(by_name), avoid=half.original.labels),
        )
    )

    node_constraint = frozenset(
        node_config(short_of[index] for index in config)
        for config in node_index_configs
    )
    # One mask per derived label, in the derived alphabet's (sorted name)
    # order, over bit positions in that same order: the rows are built once,
    # over the surviving labels only, so no bit permutation is needed.
    order = sorted(surviving, key=short_of.__getitem__)
    rows = _existential_rows([used_members[index] for index in order], partner_bits)
    edge_constraint = EdgeRelation(tuple(short_of[index] for index in order), tuple(rows))

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
        short_of[index]: frozenset(half_alphabet.config(used_members[index]))
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

    if size == 0:
        return 1
    return comb(universe + size - 1, size)


def _search_existential_configs(
    ordered_names: list[Label],
    delta: int,
    hall: AllowsTable | _MaskMembership,
) -> list[tuple[Label, ...]]:
    """DFS for the half step's node constraint with extendability pruning.

    Enumerates non-decreasing index tuples (canonical multisets) over
    ``ordered_names``, but extends a partial configuration only by the
    labels one Hall query (``allowed_next``) allows, so the work tracks the
    viable part of the space instead of the full ``C(n + delta - 1, delta)``
    grid the string path walked.  At depth ``delta - 1`` the query *is*
    membership, so its answer lists the leaves directly.
    """
    results: list[tuple[Label, ...]] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        remaining = hall.allowed_next(tuple(chosen)) >> start << start
        if len(chosen) == delta - 1:
            names = [ordered_names[index] for index in chosen]
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                results.append((*names, ordered_names[low.bit_length() - 1]))
            return
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            chosen.append(low.bit_length() - 1)
            extend(chosen[-1])
            chosen.pop()

    extend(0)
    return results


def _bits_mask(indices: Sequence[int]) -> int:
    """The mask with exactly the bits ``indices`` set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def _existential_rows(labels: Sequence[tuple[int, ...]], partner_bits: Sequence[int]) -> list[int]:
    """The existential edge relation (Property 3) as one adjacency row per label.

    ``labels`` are derived labels as increasing half-label indices; bit ``j``
    of row ``i`` says that the partner bits of some member of label ``i``
    meet label ``j``.  ``holders[h]`` is the column of labels holding half
    label ``h`` and ``reach[m]`` the OR of the columns of ``m``'s partners,
    so a row is one OR per member.  The rows are symmetric without a second
    pass: partner bits follow the Galois connection (Z is in comp(Y) iff Y
    is in comp(Z), and closed half labels are each other's polar partners),
    so either orientation witnesses the pair.
    """
    holders = [0] * len(partner_bits)
    for position, indices in enumerate(labels):
        bit = 1 << position
        for index in indices:
            holders[index] |= bit
    reach = []
    for bits in partner_bits:
        column = 0
        while bits:
            low = bits & -bits
            column |= holders[low.bit_length() - 1]
            bits ^= low
        reach.append(column)
    rows = []
    for indices in labels:
        row = 0
        for index in indices:
            row |= reach[index]
        rows.append(row)
    return rows


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
    mins: Sequence[tuple[int, ...]],
    half_count: int,
    hall: AllowsTable | _MaskMembership,
) -> list[tuple[int, ...]]:
    """DFS over non-decreasing candidate indices with extendability pruning.

    Used by the unsimplified (literal Theorem 1) path, which needs *every*
    universal configuration, not just the maximal ones.  A candidate
    extends a prefix iff each of its minimal elements extends every
    min-choice of the prefix; at depth ``delta`` that is Property 4 itself.
    """
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []
    all_labels = (1 << half_count) - 1
    min_masks = [_bits_mask(minimal) for minimal in mins]

    def extend(start: int, choices: list[tuple[int, ...]]) -> None:
        if len(chosen) == delta:
            results.append(tuple([candidates[index] for index in chosen]))
            return
        allowed = all_labels
        for choice in choices:
            allowed &= hall.allowed_next(choice)
        for index in range(start, len(candidates)):
            if min_masks[index] & ~allowed == 0:
                chosen.append(index)
                extend(index, [(*c, m) for c in choices for m in mins[index]])
                chosen.pop()

    extend(0, [()])
    # Deduplicate; candidates are pre-sorted, so each config tuple is already
    # canonical (non-decreasing in the candidate order).
    return sorted(set(results))


def _walk_prefixes(
    candidate_count: int,
    delta: int,
    mins: Sequence[tuple[int, ...]],
    half_count: int,
    allowed_next: Callable[[tuple[int, ...]], int],
    max_candidate_configs: int,
    leaf: Callable[[list[int], list[tuple[int, ...]]], None],
    stats: KernelStats,
) -> None:
    """Walk the extendable (delta-1)-prefixes in DFS order, calling ``leaf``.

    Prefixes are non-decreasing tuples of candidate ranks.  Every inner node
    asks the Hall oracle once per min-choice of its prefix; the AND of the
    answers is the set of half labels that extend every min-choice, so a
    candidate extends the prefix iff its minimal elements all lie in it.
    ``leaf`` gets each extendable (delta-1)-prefix (the walk's own list,
    valid only during the call) and the min-choices of the prefix without
    its last component, in ``itertools.product`` order (for ``delta == 1``,
    the empty prefix and ``[()]``): a leaf that needs the full min-choices
    extends them itself, so one that does not never builds them.

    The walk charges ``max_candidate_configs`` one unit per prefix extension
    attempted and one per leaf, each before it happens, and raises
    ``EngineLimitError`` on the unit past the cap.
    """
    all_labels = (1 << half_count) - 1
    min_masks = [_bits_mask(minimal) for minimal in mins]
    prefix: list[int] = []
    work = 0

    def extend(start: int, choices: list[tuple[int, ...]]) -> None:
        nonlocal work
        started = perf_counter()
        allowed = all_labels
        for choice in choices:
            allowed &= allowed_next(choice)
        stats.matching_s += perf_counter() - started
        excluded = ~allowed
        for index in range(start, candidate_count):
            work += 1
            if work > max_candidate_configs:
                raise _work_limit_error(max_candidate_configs)
            if not min_masks[index] & excluded:
                prefix.append(index)
                if len(prefix) < delta - 1:
                    extend(index, [(*c, m) for c in choices for m in mins[index]])
                else:
                    work += 1
                    if work > max_candidate_configs:
                        raise _work_limit_error(max_candidate_configs)
                    leaf(prefix, choices)
                prefix.pop()

    if delta > 1:
        extend(0, [()])
    elif max_candidate_configs < 1:
        raise _work_limit_error(max_candidate_configs)
    else:
        leaf(prefix, [()])


def _work_limit_error(max_candidate_configs: int) -> EngineLimitError:
    """The streaming full step's ``max_candidate_configs`` trip."""
    return EngineLimitError(
        f"streaming full step exceeded {max_candidate_configs} "
        f"enumeration steps (prefix extensions plus completions)",
        limit_name="max_candidate_configs",
        limit=max_candidate_configs,
        observed=max_candidate_configs + 1,
    )


def _stream_work_bound(candidate_count: int, delta: int) -> int:
    """An a-priori bound on the work units :func:`_stream_maximal_configs` charges.

    A prefix of length ``d`` tries each candidate from its last rank on, so
    the extensions tried at depth ``d`` number at most the multisets of size
    ``d + 1``; the completions number at most the (delta-1)-prefixes.
    """
    extensions = sum(_multiset_count(candidate_count, size) for size in range(1, delta))
    return extensions + _multiset_count(candidate_count, delta - 1)


def _stream_maximal_configs(
    candidates: Sequence[int],
    rank_of: Mapping[int, int],
    delta: int,
    mins: Sequence[tuple[int, ...]],
    half_count: int,
    hall: AllowsTable | _MaskMembership,
    frontier: _MaskFrontier,
    max_candidate_configs: int,
    stats: KernelStats,
) -> None:
    """Stream universal configurations via prefix completion (simplified path).

    For a fixed (delta-1)-prefix ``(F_1, ..., F_{d-1})`` the last component
    ``G`` of a universal configuration must satisfy ``mins(G) <= U`` where
    ``U`` is the set of half labels ``z`` with every min-choice of the prefix
    plus ``z`` allowed.  Realizability is monotone in each slot's meaning (a
    larger meaning only adds positions), so every ``allowed_next`` answer is
    an up-set of the half-label order, and so is ``U``, their AND: the
    unique *maximal* completion is ``U`` itself, and ``rank_of[U]`` is its
    rank (a ``KeyError`` there would fail loudly, never derive a wrong
    Pi_1).  A maximal universal configuration equals the completion of the
    prefix obtained by deleting any one of its components
    (the completion dominates it componentwise, and maximality forces
    equality), so enumerating all extendable prefixes and completing each
    yields a superset of the maximal configurations consisting of universal
    configurations only; the domination ``frontier`` then keeps exactly the
    maximal set -- the same result the exhaustive delta-tuple walk produces,
    at a whole exponent less work, and *streamed*: each completion is
    filtered on the fly, so memory tracks the undominated frontier instead
    of the full completion multiset.  Prefixes hold candidate *ranks*
    (positions in ``candidates``), so a configuration sorts as ints;
    ``rank_of`` maps each candidate back to its rank.

    ``max_candidate_configs`` is charged incrementally -- one unit per prefix
    extension attempted and per completion computed -- in deterministic DFS
    order.  Those units are fixed by the prefix walk alone, so when the
    a-priori :func:`_stream_work_bound` exceeds the cap, the same walk is
    first run with a leaf that only counts (no completion's Hall queries or
    frontier insert).  If the count passes the cap while at
    most ``frontier.max_live`` completions come before the trip, the stream
    would trip on candidates before the frontier could outgrow its cap, so
    the step is refused at once with the error the stream would raise
    (``observed = max_candidate_configs + 1``) and ``stats`` untouched.
    Otherwise the stream runs unchanged.
    """
    walk = partial(
        _walk_prefixes,
        len(candidates),
        delta,
        mins,
        half_count,
        hall.allowed_next,
        max_candidate_configs,
    )
    if _stream_work_bound(len(candidates), delta) > max_candidate_configs:
        completions = 0

        def count(prefix: list[int], choices: list[tuple[int, ...]]) -> None:
            nonlocal completions
            completions += 1

        try:
            walk(count, KernelStats())
        except EngineLimitError:
            if completions <= frontier.max_live:
                raise

    allowed_next = hall.allowed_next
    all_labels = (1 << half_count) - 1
    insert = frontier.insert

    def complete(prefix: list[int], choices: Iterable[tuple[int, ...]]) -> None:
        """Compute U for the prefix and stream its completion."""
        if prefix:
            choices = ((*c, m) for c in choices for m in mins[prefix[-1]])
        started = perf_counter()
        allowed = all_labels
        calls = 0
        for choice in choices:
            allowed &= allowed_next(choice)
            calls += 1
            if not allowed:
                break
        stats.matching_calls += calls
        stats.matching_s += perf_counter() - started
        if not allowed:
            return
        config = tuple([candidates[r] for r in sorted([*prefix, rank_of[allowed]])])
        started = perf_counter()
        insert(config)
        stats.domination_s += perf_counter() - started
        stats.configs_streamed += 1

    walk(complete, stats)


class _MaskFrontier:
    """Streaming domination frontier over big-int configuration masks.

    Maintains the maximal antichain of the configurations inserted so far
    under componentwise set containment.  Mutual domination implies
    equality, so the surviving *set* is the unique maximal antichain of the
    stream -- independent of insertion order, which is what makes the
    streaming full step byte-identical to the historic collect-then-filter
    pass.  A strict dominator always has strictly more total bits, so the
    entries are grouped by total: only groups with a larger total are
    searched for a dominator, only smaller ones for victims, and the
    newcomer's own group not at all.  On the 976-label weak-3-coloring[2]
    Pi_1 every completion has the same total, and the ungrouped scan made
    118,828 comparisons per derivation that could find nothing.  Inside the
    searched groups the union-superset and sorted-popcount-profile
    prefilters skip almost every exact matching test.

    Almost every completion of a long stream is dominated, so the scan
    visits the group that dominated last first and, inside a group, the
    newest entry first; an entry that dominates moves to the newest place
    of its group, and its group to the front of the scan: the next
    completion shares most of its prefix and is usually dominated by the
    same entry.  The order of the scan changes which entry is found, never
    the outcome, the evictions or ``peak``.

    ``max_live`` caps the *live* frontier: the error fires only when the
    undominated set itself -- and with it the derived problem's node
    constraint -- would exceed the cap, never on the raw completion count.

    The fold is scalar by measurement: a numpy frontier took 0.036 s
    against 0.017 s for the ungrouped scalar scan over the eleven cold
    derivations of the ``derive-cold`` benchmark workload, and 5.0 s
    against 2.8 s on weak-2-coloring[3] classify.
    """

    def __init__(self, max_live: int):
        self.max_live = max_live
        self._live: set[tuple[int, ...]] = set()
        # total bits -> {config: (sorted popcounts, union)}
        self._groups: dict[int, dict[tuple[int, ...], tuple[list[int], int]]] = {}
        self.peak = 0

    def __len__(self) -> int:
        return len(self._live)

    def insert(self, config: tuple[int, ...]) -> None:
        live, groups = self._live, self._groups
        if config in live:
            return
        union = 0
        for component in config:
            union |= component
        popcounts = sorted(map(int.bit_count, config))
        total = sum(popcounts)
        victims: list[tuple[int, tuple[int, ...]]] = []
        # Most recent dominator first: its group, then its place in the group.
        for kept_total, kept in reversed(groups.items()):
            if kept_total > total:
                for kept_config, (kept_pops, kept_union) in reversed(kept.items()):
                    if union & ~kept_union or any(map(gt, popcounts, kept_pops)):
                        continue
                    if _config_dominates(kept_config, config):
                        # A frontier member dominating the newcomer excludes
                        # any frontier member dominated by it (the frontier is
                        # an antichain and domination is transitive), so no
                        # evictions can have been collected; drop the newcomer.
                        kept[kept_config] = kept.pop(kept_config)
                        groups[kept_total] = groups.pop(kept_total)
                        return
            elif kept_total < total:
                for kept_config, (kept_pops, kept_union) in kept.items():
                    if kept_union & ~union or any(map(lt, popcounts, kept_pops)):
                        continue
                    if _config_dominates(config, kept_config):
                        victims.append((kept_total, kept_config))
        for kept_total, victim in victims:
            del groups[kept_total][victim]
            live.remove(victim)
        groups.setdefault(total, {})[config] = (popcounts, union)
        live.add(config)
        if len(live) > self.peak:
            self.peak = len(live)
        if len(live) > self.max_live:
            raise EngineLimitError(
                f"streaming full step holds more than {self.max_live} "
                f"undominated candidate configurations",
                limit_name="max_live_configs",
                limit=self.max_live,
                observed=self.max_live + 1,
            )

    def survivors(self) -> list[tuple[int, ...]]:
        return sorted(self._live)


def _config_dominates(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """``big`` dominates ``small``: some bijection pairs every component of
    ``small`` with a distinct superset component of ``big`` -- a perfect-
    matching test over position masks."""
    # Both tuples are sorted by rank, and the in-order pairing settles
    # almost every test that holds (108k of 109k on weak-2-coloring[3]).
    for component, candidate in zip(small, big):
        if component & ~candidate:
            break
    else:
        return True
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
