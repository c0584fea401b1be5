"""The bit-packed vector kernel tier (numpy-backed, optional).

PR 3 moved the derivation hot path onto pure-Python big-int bitmasks; this
module adds the next tier: label masks packed into ``uint64`` numpy rows
(problems with more than 64 derived labels spill to multi-word rows) so the
three hot folds -- the Galois closed-set fixed point, the Hall/matching
feasibility tests over position masks, and the filter/antichain enumeration
with domination filtering -- evaluate thousands of candidate masks per
vector operation instead of one at a time.

Design contract: every batched fold here is *exactly equivalent* to its
scalar counterpart in :mod:`repro.core.galois` / :mod:`repro.core.speedup`,
including ``EngineLimitError`` trip points and ``observed`` counts; the
differential suite (``tests/test_vectorkernel.py``) asserts byte-identical
results over the catalog and hundreds of seeded random problems.  That is
what lets the engine treat the kernel choice as a pure performance knob:
cached results, certificates, and JSON payloads are independent of it.

numpy stays an *optional* dependency.  :func:`get_numpy` returns ``None``
when numpy is missing, too old (``bitwise_count`` needs numpy >= 2), or
disabled via the ``REPRO_NO_NUMPY`` environment variable (the CI
numpy-absent matrix leg); every caller then falls back to the big-int path.
:func:`resolve_kernel` centralises the ``"auto" | "mask" | "vector"``
selection, degrading ``"vector"`` gracefully to ``"mask"`` when numpy is
unusable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.limits import EngineLimitError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

__all__ = [
    "KERNEL_NAMES",
    "KernelStats",
    "get_numpy",
    "vector_ready",
    "resolve_kernel",
    "words_for",
    "pack_masks",
    "unpack_masks",
    "closed_masks_vector",
    "enumerate_filters_vector",
    "AllowsTable",
    "VectorFrontier",
    "existential_edge_matrix",
]

#: Kernel selection values accepted by :func:`resolve_kernel` and
#: :class:`repro.engine.EngineConfig`.
KERNEL_NAMES: tuple[str, ...] = ("auto", "mask", "vector")

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

# Import result cache: ``None`` means "not yet probed".  The REPRO_NO_NUMPY
# override is re-read per call so a test can flip it without reloading the
# module; the import itself is probed once.
_numpy_probe: tuple["numpy", ...] | tuple[None] | None = None


def get_numpy() -> Any | None:
    """The numpy module when the vector tier can use it, else ``None``.

    Requires ``numpy.bitwise_count`` (numpy >= 2) for packed popcounts.
    Honors ``REPRO_NO_NUMPY`` (any non-empty value disables the vector
    tier), which is how the CI fallback leg proves the big-int path passes
    identically without numpy installed.
    """
    global _numpy_probe
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    if _numpy_probe is None:
        try:
            import numpy
        except ImportError:
            _numpy_probe = (None,)
        else:
            _numpy_probe = (numpy,) if hasattr(numpy, "bitwise_count") else (None,)
    return _numpy_probe[0]


def vector_ready() -> bool:
    """True iff ``resolve_kernel("auto")`` would pick the vector tier."""
    return get_numpy() is not None


def resolve_kernel(kernel: str) -> str:
    """Resolve a kernel selection to the concrete tier: ``mask`` or ``vector``.

    ``"auto"`` picks ``"vector"`` when numpy is usable, else ``"mask"``;
    an explicit ``"vector"`` also degrades to ``"mask"`` when numpy is
    unusable (the knob is a performance preference, never a hard
    requirement -- results are identical either way).
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError(f"kernel must be one of {KERNEL_NAMES}, got {kernel!r}")
    if kernel == "mask":
        return "mask"
    return "vector" if vector_ready() else "mask"


@dataclass
class KernelStats:
    """Per-fold wall-clock counters for one speedup derivation.

    Attached to :class:`repro.core.speedup.SpeedupResult` out-of-band (via
    the instance ``__dict__``, never serialized into ``to_dict`` -- the JSON
    payload stays byte-deterministic) and surfaced as benchmark columns by
    ``benchmarks/run_speedup_bench.py --kernel NAME``.

    The phases partition the derivation: ``closed_sets_s`` is the half
    step's Galois closed-set fixed point, ``enumeration_s`` the
    filter/antichain enumeration, ``matching_s`` the prefix-completion
    walk (dominated by Hall/matching feasibility checks), ``domination_s``
    the streaming domination frontier, and ``materialise_s`` the derived
    problem construction tail.
    """

    kernel: str = "mask"
    closed_sets_s: float = 0.0
    enumeration_s: float = 0.0
    matching_s: float = 0.0
    domination_s: float = 0.0
    materialise_s: float = 0.0
    matching_calls: int = 0
    configs_streamed: int = 0
    frontier_peak: int = 0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (benchmark rows; not part of result payloads)."""
        return {
            "kernel": self.kernel,
            "closed_sets_s": round(self.closed_sets_s, 6),
            "enumeration_s": round(self.enumeration_s, 6),
            "matching_s": round(self.matching_s, 6),
            "domination_s": round(self.domination_s, 6),
            "materialise_s": round(self.materialise_s, 6),
            "matching_calls": self.matching_calls,
            "configs_streamed": self.configs_streamed,
            "frontier_peak": self.frontier_peak,
        }


# -- packing -----------------------------------------------------------------


def words_for(bit_count: int) -> int:
    """Number of ``uint64`` words needed for ``bit_count``-bit masks."""
    return max(1, (bit_count + _WORD_BITS - 1) // _WORD_BITS)


def pack_masks(masks: Sequence[int], bit_count: int) -> "numpy.ndarray":
    """Pack big-int masks into an ``(N, words)`` ``uint64`` array."""
    np_ = get_numpy()
    assert np_ is not None
    words = words_for(bit_count)
    byte_len = words * 8
    buffer = b"".join(int(mask).to_bytes(byte_len, "little") for mask in masks)
    return np_.frombuffer(buffer, dtype=np_.uint64).reshape(len(masks), words).copy()


def unpack_masks(rows: "numpy.ndarray") -> list[int]:
    """Inverse of :func:`pack_masks`: ``(N, words)`` rows back to big ints.

    Any unsigned word width reads the same way (little-endian, word 0
    lowest), so ``numpy.packbits(..., bitorder="little")`` rows of
    ``uint8`` unpack too.
    """
    data = rows.tobytes()
    stride = rows.shape[1] * rows.itemsize
    return [
        int.from_bytes(data[offset : offset + stride], "little")
        for offset in range(0, len(data), stride)
    ]


# -- Galois closed-set closure -----------------------------------------------


def closed_masks_vector(
    generators: Sequence[int],
    full_mask: int,
    bit_count: int,
    limit: int | None,
    is_usable: Callable[[int], bool],
    *,
    chunk: int = 256,
) -> frozenset[int]:
    """Intersection-closure of the singleton polars, batched.

    Mirrors :meth:`repro.core.galois.Compatibility.closed_masks` exactly,
    including the limit semantics: the *initial* usable count (generators
    plus the full set) aborts with the full count as ``observed``; during
    frontier expansion the abort fires at exactly ``limit + 1`` usable sets.
    The pairwise intersections are evaluated as a broadcast AND over packed
    rows -- ``chunk`` frontier rows against every generator per step -- with
    duplicates removed by a row-level unique before the (scalar, memoised)
    usable test runs on genuinely new sets only.
    """
    np_ = get_numpy()
    assert np_ is not None

    def abort(count: int) -> None:
        raise EngineLimitError(
            f"half step enumerated more than {limit} usable Galois-closed sets",
            limit_name="max_derived_labels",
            limit=limit,
            observed=count,
        )

    generator_set = {int(mask) for mask in generators}
    generator_set.add(int(full_mask))
    closed: set[int] = set(generator_set)
    usable = 0
    if limit is not None:
        for mask in closed:
            if is_usable(mask):
                usable += 1
        if usable > limit:
            abort(usable)

    ordered_generators = sorted(generator_set)
    generator_rows = pack_masks(ordered_generators, bit_count)[None, :, :]
    frontier = ordered_generators
    while frontier:
        fresh: list[int] = []
        for start in range(0, len(frontier), chunk):
            frontier_rows = pack_masks(frontier[start : start + chunk], bit_count)
            candidates = frontier_rows[:, None, :] & generator_rows
            candidates = candidates.reshape(-1, candidates.shape[-1])
            for mask in unpack_masks(np_.unique(candidates, axis=0)):
                if mask not in closed:
                    closed.add(mask)
                    fresh.append(mask)
                    if limit is not None and is_usable(mask):
                        usable += 1
                        if usable > limit:
                            abort(limit + 1)
        frontier = fresh
    return frozenset(closed)


# -- filter (up-set) enumeration ---------------------------------------------


def enumerate_filters_vector(
    count: int,
    up: Sequence[int],
    comparable: Sequence[int],
    max_derived_labels: int,
) -> list[int]:
    """Level-wise batched enumeration of the non-empty poset filters.

    Mirrors :func:`repro.core.speedup._enumerate_filters`: filters are in
    bijection with non-empty antichains of the half-label poset; here the
    antichains are expanded a level (antichain size) at a time, every level
    batched as packed rows, so one vector op extends thousands of antichains
    by one element.  Aborts with ``observed == max_derived_labels + 1`` as
    soon as the collected count exceeds the limit, exactly like the scalar
    DFS (the trip condition -- total filter count exceeds the limit -- is
    order-independent).
    """
    np_ = get_numpy()
    assert np_ is not None
    if count == 0:
        return []

    def abort() -> None:
        raise EngineLimitError(
            f"full step over {count} half labels produces "
            f"more than {max_derived_labels} filters",
            limit_name="max_derived_labels",
            limit=max_derived_labels,
            observed=max_derived_labels + 1,
        )

    up_rows = pack_masks(up, count)
    comparable_rows = pack_masks(comparable, count)
    words = up_rows.shape[1]
    word_index = np_.arange(count) // _WORD_BITS
    bit_value = np_.uint64(1) << (np_.arange(count, dtype=np_.uint64) % _WORD_BITS)

    # Level 1: every singleton antichain {i}, filter = up[i].
    antichains = np_.zeros((count, words), dtype=np_.uint64)
    antichains[np_.arange(count), word_index] = bit_value
    filters = up_rows.copy()
    max_index = np_.arange(count)

    collected: list["numpy.ndarray"] = [filters]
    total = count
    if total > max_derived_labels:
        abort()

    while len(antichains):
        next_antichains: list["numpy.ndarray"] = []
        next_filters: list["numpy.ndarray"] = []
        next_max: list["numpy.ndarray"] = []
        for j in range(1, count):
            eligible = (max_index < j) & ~np_.any(
                antichains & comparable_rows[j], axis=1
            )
            if not eligible.any():
                continue
            grown = antichains[eligible].copy()
            grown[:, word_index[j]] |= bit_value[j]
            grown_filters = filters[eligible] | up_rows[j]
            next_antichains.append(grown)
            next_filters.append(grown_filters)
            next_max.append(np_.full(len(grown), j))
            total += len(grown)
            if total > max_derived_labels:
                abort()
        if not next_antichains:
            break
        antichains = np_.concatenate(next_antichains)
        filters = np_.concatenate(next_filters)
        max_index = np_.concatenate(next_max)
        collected.append(filters)

    return unpack_masks(np_.concatenate(collected))


# -- batched Hall / matching feasibility -------------------------------------


class AllowsTable:
    """Batched membership tests for the half-step node constraint.

    Precomputes, per original node configuration ``c`` and per half label
    ``h``, the mask of positions of ``c`` (bits over ``range(delta)``) that
    can receive a label from ``meaning(h)`` -- the bipartite adjacency the
    scalar :class:`repro.core.speedup._MaskMembership` rebuilds per query.
    A full-membership query for ``delta`` half labels then reduces to
    Hall's condition over at most ``2**delta`` position-mask unions,
    evaluated for *every* candidate last label at once: exactly the inner
    loop of the prefix-completion enumeration, batched.

    Hall's marriage theorem (every slot subset must see at least as many
    positions) is equivalent to the perfect matching
    :func:`repro.core.alphabet.mask_matching_exists` searches for, so the
    batched predicate is exactly the scalar one.
    """

    def __init__(
        self,
        np_: Any,
        delta: int,
        config_supports: Sequence[int],
        config_position_masks: Sequence[dict[int, int]],
        meaning_masks: Sequence[int],
        original_size: int,
    ):
        self._np = np_
        self._delta = delta
        self._half_count = len(meaning_masks)
        config_count = len(config_supports)

        # Q[c, i]: positions of original label i in configuration c.
        positions = np_.zeros((config_count, original_size), dtype=np_.uint16)
        for config_index, per_label in enumerate(config_position_masks):
            for label_index, position_mask in per_label.items():
                positions[config_index, label_index] = position_mask
        # M[i, h]: original label i belongs to meaning(h).
        membership = np_.zeros((original_size, self._half_count), dtype=np_.uint8)
        for half_index, meaning in enumerate(meaning_masks):
            remaining = int(meaning)
            while remaining:
                low = remaining & -remaining
                membership[low.bit_length() - 1, half_index] = 1
                remaining ^= low
        # P[c, h]: positions of c that can receive a label from meaning(h),
        # assembled bit-plane by bit-plane (delta matmuls of 0/1 matrices).
        table = np_.zeros((config_count, self._half_count), dtype=np_.uint16)
        for bit in range(delta):
            plane = ((positions >> bit) & 1).astype(np_.uint8)
            table |= (plane @ membership > 0).astype(np_.uint16) << np_.uint16(bit)
        self._table = table
        self._popcount = np_.bitwise_count(table)
        self._last_cache: dict[tuple[int, ...], int] = {}

    def allowed_last(self, choice: Sequence[int]) -> int:
        """Half labels ``z`` with ``allows(choice + (z,))``, as a bitmask.

        ``choice`` holds ``delta - 1`` half-label indices (the fixed slots
        of one min-choice of a prefix); the return value packs, one bit per
        half label, whether the full ``delta``-slot configuration satisfies
        the existential node constraint in *some* original configuration.
        The answer is a pure function of ``choice`` and the same choices
        recur across thousands of prefixes, so results are memoised.
        """
        key = tuple(choice)
        cached = self._last_cache.get(key)
        if cached is not None:
            return cached
        np_ = self._np
        table = self._table
        base = [table[:, index] for index in choice]
        # Hall over the fixed slots alone (z-independent): prune configs.
        feasible = np_.ones(table.shape[0], dtype=bool)
        subsets: list[tuple[int, "numpy.ndarray"]] = []
        for bits in range(1, 1 << len(base)):
            union = np_.zeros(table.shape[0], dtype=np_.uint16)
            size = 0
            for slot, column in enumerate(base):
                if bits >> slot & 1:
                    union = union | column
                    size += 1
            feasible &= np_.bitwise_count(union) >= size
            subsets.append((size, union))
        # Hall over every subset including z: |S| + 1 positions needed.
        allowed = (self._popcount >= 1) & feasible[:, None]
        for size, union in subsets:
            allowed &= np_.bitwise_count(union[:, None] | table) >= size + 1
        any_config = np_.any(allowed, axis=0)
        mask = 0
        for half_index in np_.nonzero(any_config)[0].tolist():
            mask |= 1 << half_index
        self._last_cache[key] = mask
        return mask


# -- streaming domination frontier -------------------------------------------


class VectorFrontier:
    """Maximal-antichain frontier under componentwise domination, batched.

    Semantically identical to the scalar frontier in
    :mod:`repro.core.speedup` (insertions are processed strictly in stream
    order; the survivor *set* is the unique maximal antichain, so it is
    independent of both order and chunking); the per-insertion dominator
    and dominated scans run as vector ops over packed union rows, total
    popcounts, and sorted popcount profiles, with the exact bipartite
    matching test reserved for the few candidates the prefilters leave.
    """

    def __init__(
        self,
        np_: Any,
        bit_count: int,
        delta: int,
        max_live: int,
        dominates: Callable[[tuple[int, ...], tuple[int, ...]], bool],
    ):
        self._np = np_
        self._bits = bit_count
        self._words = words_for(bit_count)
        self._delta = delta
        self._max_live = max_live
        self._dominates = dominates
        capacity = 1024
        self._unions = np_.zeros((capacity, self._words), dtype=np_.uint64)
        self._totals = np_.zeros(capacity, dtype=np_.int64)
        self._profiles = np_.zeros((capacity, delta), dtype=np_.int64)
        self._alive = np_.zeros(capacity, dtype=bool)
        self._configs: list[tuple[int, ...] | None] = [None] * capacity
        self._members: dict[tuple[int, ...], int] = {}
        self._size = 0
        self.peak = 0

    def __len__(self) -> int:
        return len(self._members)

    def _grow(self) -> None:
        np_ = self._np
        capacity = len(self._configs) * 2
        for name in ("_unions", "_totals", "_profiles", "_alive"):
            old = getattr(self, name)
            shape = (capacity,) + old.shape[1:]
            fresh = np_.zeros(shape, dtype=old.dtype)
            fresh[: len(old)] = old
            setattr(self, name, fresh)
        self._configs.extend([None] * (capacity - len(self._configs)))

    def insert(self, config: tuple[int, ...]) -> None:
        """Insert one configuration, keeping the frontier a maximal antichain."""
        if config in self._members:
            return
        np_ = self._np
        union = 0
        for component in config:
            union |= component
        popcounts = sorted((component.bit_count() for component in config), reverse=True)
        total = sum(popcounts)
        union_row = pack_masks([union], self._bits)[0]
        profile = np_.array(popcounts, dtype=np_.int64)

        live = self._alive[: self._size]
        unions = self._unions[: self._size]
        totals = self._totals[: self._size]
        profiles = self._profiles[: self._size]

        # Dominators must have strictly more total bits, a superset union,
        # and a componentwise-greater popcount profile.
        candidates = live & (totals > total)
        if candidates.any():
            candidates &= ~np_.any(union_row & ~unions, axis=1)
            candidates &= np_.all(profile <= profiles, axis=1)
            for row in np_.nonzero(candidates)[0].tolist():
                kept = self._configs[row]
                assert kept is not None
                if self._dominates(kept, config):
                    return
        # Evict frontier members this configuration strictly dominates.
        victims = live & (totals < total)
        if victims.any():
            victims &= ~np_.any(unions & ~union_row, axis=1)
            victims &= np_.all(profiles <= profile, axis=1)
            for row in np_.nonzero(victims)[0].tolist():
                kept = self._configs[row]
                assert kept is not None
                if self._dominates(config, kept):
                    self._alive[row] = False
                    del self._members[kept]
                    self._configs[row] = None

        if self._size == len(self._configs):
            self._compact()
            if self._size == len(self._configs):
                self._grow()
        row = self._size
        self._unions[row] = union_row
        self._totals[row] = total
        self._profiles[row] = profile
        self._alive[row] = True
        self._configs[row] = config
        self._members[config] = row
        self._size += 1
        if len(self._members) > self.peak:
            self.peak = len(self._members)
        if len(self._members) > self._max_live:
            raise EngineLimitError(
                f"streaming full step holds more than {self._max_live} "
                f"undominated candidate configurations",
                limit_name="max_live_configs",
                limit=self._max_live,
                observed=self._max_live + 1,
            )

    def _compact(self) -> None:
        """Drop evicted rows so capacity tracks the live frontier."""
        np_ = self._np
        live_rows = np_.nonzero(self._alive[: self._size])[0]
        if len(live_rows) == self._size:
            return
        count = len(live_rows)
        self._unions[:count] = self._unions[live_rows]
        self._totals[:count] = self._totals[live_rows]
        self._profiles[:count] = self._profiles[live_rows]
        self._alive[:count] = True
        self._alive[count:] = False
        survivors = [self._configs[row] for row in live_rows.tolist()]
        for index, config in enumerate(survivors):
            assert config is not None
            self._configs[index] = config
            self._members[config] = index
        for index in range(count, len(self._configs)):
            self._configs[index] = None
        self._size = count

    def insert_chunk(self, configs: Sequence[tuple[int, ...]]) -> None:
        """Insert a buffered chunk (strictly in order; chunking is batching
        of the Python-to-array packing, never a semantic boundary)."""
        for config in configs:
            self.insert(config)

    def survivors(self) -> list[tuple[int, ...]]:
        return sorted(self._members)


# -- existential edge relation ----------------------------------------------


def existential_edge_matrix(
    used_masks: Sequence[int],
    partner_unions: Sequence[int],
    bit_count: int,
    *,
    chunk: int = 512,
) -> "numpy.ndarray":
    """The boolean matrix of pairs ``{i, j}`` with an existential edge witness.

    The pair is allowed iff the polar-partner bits of one side intersect
    the other side -- the same predicate as the scalar double loop in
    :func:`repro.core.speedup.full_step` (symmetric, see there), evaluated
    as a broadcast AND of packed rows, ``chunk`` rows at a time.  One
    ``count x count`` byte matrix, however many pairs it holds (tens of
    millions on huge ``Pi_1``).
    """
    np_ = get_numpy()
    assert np_ is not None
    count = len(used_masks)
    hits = np_.zeros((count, count), dtype=bool)
    if count == 0:
        return hits
    used_rows = pack_masks(used_masks, bit_count)
    partner_rows = pack_masks(partner_unions, bit_count)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        hits[start:stop] = np_.any(
            partner_rows[start:stop, None, :] & used_rows[None, :, :], axis=2
        )
    return hits
