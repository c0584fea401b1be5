"""The numpy folds of the derivation: batched matching and materialisation.

Label masks are packed into ``uint64`` numpy rows (problems with more than
64 derived labels spill to multi-word rows) wherever a fold evaluates
thousands of candidates per vector operation.  Each fold of the derivation
has exactly one implementation, the one that measured fastest; two of them
live here:

* prefix-completion matching -- :class:`AllowsTable` decides, for every
  candidate last label at once, whether a half-step configuration is
  realizable (Hall's condition over position masks).  It packs positions
  into ``uint16``, so inputs with ``delta > 16`` take the scalar matching
  loop in :mod:`repro.core.speedup`;
* materialisation -- :func:`existential_edge_matrix` builds the derived
  edge relation as one boolean matrix, which :mod:`repro.core.speedup`
  packs into per-label adjacency masks.

The closed-set fixed point, the filter enumeration and the domination
frontier stay scalar big-int code in :mod:`repro.core.galois` and
:mod:`repro.core.speedup`: batching them measured slower.  numpy >= 2 is a
hard dependency (``numpy.bitwise_count`` does the packed popcounts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy

__all__ = [
    "KernelStats",
    "get_numpy",
    "resolve_kernel",
    "words_for",
    "pack_masks",
    "unpack_masks",
    "AllowsTable",
    "existential_edge_matrix",
]

_WORD_BITS = 64


def get_numpy() -> Any:
    """The numpy module.

    Kept only for ``perfbench/workload.py``, which reports the numpy
    version through it; numpy itself is a hard dependency.
    """
    return numpy


def resolve_kernel(kernel: str) -> str:
    """Validate a legacy kernel selection; the answer is always ``"vector"``.

    Every fold has one implementation, so there is nothing to select.
    ``"auto"`` and ``"vector"`` are accepted for ``perfbench/workload.py``,
    which pins ``EngineConfig(kernel="vector")`` and reports this value;
    ``"mask"`` names the removed scalar tier and is rejected.
    """
    if kernel == "mask":
        raise ValueError(
            "kernel='mask' is no longer supported: the scalar kernel tier was "
            "removed and every derivation fold has a single implementation"
        )
    if kernel not in ("auto", "vector"):
        raise ValueError(f"kernel must be 'auto' or 'vector', got {kernel!r}")
    return "vector"


@dataclass
class KernelStats:
    """Per-fold wall-clock counters for one speedup derivation.

    Attached to :class:`repro.core.speedup.SpeedupResult` out-of-band (via
    the instance ``__dict__``, never serialized into ``to_dict`` -- the JSON
    payload stays byte-deterministic) and read as the ``fold.*`` per-layer
    metrics by the repository benchmark's tracer (``perfbench/tracer.py``).

    The phases partition the derivation: ``closed_sets_s`` is the half
    step's Galois closed-set fixed point, ``enumeration_s`` the
    filter/antichain enumeration, ``matching_s`` the prefix-completion
    walk (dominated by Hall/matching feasibility checks), ``domination_s``
    the streaming domination frontier, and ``materialise_s`` the derived
    problem construction tail.
    """

    closed_sets_s: float = 0.0
    enumeration_s: float = 0.0
    matching_s: float = 0.0
    domination_s: float = 0.0
    materialise_s: float = 0.0
    matching_calls: int = 0
    configs_streamed: int = 0
    frontier_peak: int = 0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (diagnostics; not part of result payloads)."""
        return {
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


def pack_masks(masks: Sequence[int], bit_count: int) -> numpy.ndarray:
    """Pack big-int masks into an ``(N, words)`` ``uint64`` array."""
    words = words_for(bit_count)
    byte_len = words * 8
    buffer = b"".join(int(mask).to_bytes(byte_len, "little") for mask in masks)
    return numpy.frombuffer(buffer, dtype=numpy.uint64).reshape(len(masks), words).copy()


def unpack_masks(rows: numpy.ndarray) -> list[int]:
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
        delta: int,
        config_supports: Sequence[int],
        config_position_masks: Sequence[dict[int, int]],
        meaning_masks: Sequence[int],
        original_size: int,
    ):
        self._half_count = len(meaning_masks)
        config_count = len(config_supports)

        # Q[c, i]: positions of original label i in configuration c.
        positions = numpy.zeros((config_count, original_size), dtype=numpy.uint16)
        for config_index, per_label in enumerate(config_position_masks):
            for label_index, position_mask in per_label.items():
                positions[config_index, label_index] = position_mask
        # M[i, h]: original label i belongs to meaning(h).
        membership = numpy.zeros((original_size, self._half_count), dtype=numpy.uint8)
        for half_index, meaning in enumerate(meaning_masks):
            remaining = int(meaning)
            while remaining:
                low = remaining & -remaining
                membership[low.bit_length() - 1, half_index] = 1
                remaining ^= low
        # P[c, h]: positions of c that can receive a label from meaning(h),
        # assembled bit-plane by bit-plane (delta matmuls of 0/1 matrices).
        table = numpy.zeros((config_count, self._half_count), dtype=numpy.uint16)
        for bit in range(delta):
            plane = ((positions >> bit) & 1).astype(numpy.uint8)
            table |= (plane @ membership > 0).astype(numpy.uint16) << numpy.uint16(bit)
        self._table = table
        self._popcount = numpy.bitwise_count(table)
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
        table = self._table
        base = [table[:, index] for index in choice]
        # Hall over the fixed slots alone (z-independent): prune configs.
        feasible = numpy.ones(table.shape[0], dtype=bool)
        subsets: list[tuple[int, numpy.ndarray]] = []
        for bits in range(1, 1 << len(base)):
            union = numpy.zeros(table.shape[0], dtype=numpy.uint16)
            size = 0
            for slot, column in enumerate(base):
                if bits >> slot & 1:
                    union = union | column
                    size += 1
            feasible &= numpy.bitwise_count(union) >= size
            subsets.append((size, union))
        # Hall over every subset including z: |S| + 1 positions needed.
        allowed = (self._popcount >= 1) & feasible[:, None]
        for size, union in subsets:
            allowed &= numpy.bitwise_count(union[:, None] | table) >= size + 1
        any_config = numpy.any(allowed, axis=0)
        mask = 0
        for half_index in numpy.nonzero(any_config)[0].tolist():
            mask |= 1 << half_index
        self._last_cache[key] = mask
        return mask


# -- existential edge relation ----------------------------------------------


def existential_edge_matrix(
    used_masks: Sequence[int],
    partner_unions: Sequence[int],
    bit_count: int,
    *,
    chunk: int = 512,
) -> numpy.ndarray:
    """The boolean matrix of pairs ``{i, j}`` with an existential edge witness.

    The pair is allowed iff the polar-partner bits of one side intersect
    the other side (symmetric, see :func:`repro.core.speedup.full_step`),
    evaluated as a broadcast AND of packed rows, ``chunk`` rows at a time.  One
    ``count x count`` byte matrix, however many pairs it holds (tens of
    millions on huge ``Pi_1``).
    """
    count = len(used_masks)
    hits = numpy.zeros((count, count), dtype=bool)
    if count == 0:
        return hits
    used_rows = pack_masks(used_masks, bit_count)
    partner_rows = pack_masks(partner_unions, bit_count)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        hits[start:stop] = numpy.any(
            partner_rows[start:stop, None, :] & used_rows[None, :, :], axis=2
        )
    return hits
