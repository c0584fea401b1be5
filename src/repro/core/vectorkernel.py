"""The batched Hall query of the derivation, and the kernel's fold counters.

Each fold of the derivation has exactly one implementation, the one that
measured fastest.  The one batched fold lives here:

* the Hall query -- :class:`AllowsTable` decides, for every candidate
  next label at once, whether a partial configuration of any length below
  ``delta`` still extends to an allowed one (Hall's condition over
  position masks).  One table serves both steps: the half step's
  node-configuration search, and the full step's prefix pruning and
  prefix completion.  It computes on Python ints used as bit matrices
  (one row per node configuration, one bit per half label): against its
  numpy form that measured 2-3x faster on the ``classify-mix``
  derivations and 10% slower on the ``derive-cold`` ones (docs/API.md,
  "Kernels").  Inputs with ``delta > 16`` ask the scalar matching oracle
  in :mod:`repro.core.speedup` instead of walking ``2**(delta - 1)`` slot
  subsets.

Materialisation (the derived edge relation as one adjacency row per label)
is Python-int code in :mod:`repro.core.speedup` too: its numpy form, a
boolean ``labels x labels`` matrix packed to rows, measured about 3x slower
on the ``derive-cold`` derivations (docs/API.md, "Kernels").  The
closed-set fixed point, the filter enumeration and the domination frontier
stay scalar big-int code in :mod:`repro.core.galois` and
:mod:`repro.core.speedup`: batching them measured slower.  So no fold
imports numpy; :func:`get_numpy` loads it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.alphabet import InternedProblem

__all__ = [
    "KernelStats",
    "get_numpy",
    "resolve_kernel",
    "AllowsTable",
]


def get_numpy() -> Any:
    """The numpy module, imported on first call.

    Kept only for ``perfbench/workload.py``, which reports the numpy
    version through it.  No derivation fold uses numpy, so importing
    :mod:`repro` does not load it.
    """
    import numpy

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
    step's Galois closed-set fixed point, ``existential_s`` the half step's
    node-configuration search (its Hall table and DFS),
    ``enumeration_s`` the filter/antichain enumeration, ``matching_s`` the
    full step's Hall queries (prefix pruning and prefix completion),
    ``domination_s`` the streaming domination frontier, and
    ``materialise_s`` the derived problem construction tail (the
    ``compressed()`` fixpoint, the rename, and the Python-int adjacency rows
    of the existential edge relation).

    A full step refused before its stream (its work would pass
    ``max_candidate_configs`` first) leaves the stream counters --
    ``matching_s``, ``domination_s``, ``matching_calls``,
    ``configs_streamed`` and ``frontier_peak`` -- at zero rather than
    partial: the refusal computes no completion, and the time its counting
    walk takes is not a fold.  ``frontier_peak`` is recorded only when the
    stream completes.
    """

    closed_sets_s: float = 0.0
    existential_s: float = 0.0
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
            "existential_s": round(self.existential_s, 6),
            "enumeration_s": round(self.enumeration_s, 6),
            "matching_s": round(self.matching_s, 6),
            "domination_s": round(self.domination_s, 6),
            "materialise_s": round(self.materialise_s, 6),
            "matching_calls": self.matching_calls,
            "configs_streamed": self.configs_streamed,
            "frontier_peak": self.frontier_peak,
        }


# -- batched Hall / matching feasibility -------------------------------------


class AllowsTable:
    """Batched Hall queries for the existential node constraint ``h_{1/2}``.

    One table serves both steps of the derivation and every prefix length:
    the half step's node-configuration search asks it which half labels
    may extend a partial configuration, and the full step's prefix pruning
    and prefix completion read the same answers.

    The table is a bit matrix per position ``b`` of a node configuration,
    packed into one Python int: row ``c`` (one original node configuration)
    holds, one bit per half label ``h``, whether ``meaning(h)`` contains the
    label at position ``b`` of ``c``.  A query works on whole matrices, so
    it decides every configuration and every candidate next label with a
    few big-int operations per subset of the slots already chosen.  Hall's
    marriage theorem (every slot subset must see at least as many
    positions) is equivalent to the perfect matching
    :func:`repro.core.alphabet.mask_matching_exists` searches for, so the
    batched predicate is exactly the scalar ``extendable`` of
    :class:`repro.core.speedup._MaskMembership`.
    """

    def __init__(self, original: InternedProblem, meaning_masks: Sequence[int]):
        # holders[i]: the half labels whose meaning holds original label i.
        holders = [0] * original.alphabet.size
        for half_index, meaning in enumerate(meaning_masks):
            remaining = int(meaning)
            while remaining:
                low = remaining & -remaining
                holders[low.bit_length() - 1] |= 1 << half_index
                remaining ^= low
        configs = original.node_configs
        # Rows are padded to whole bytes, so a matrix is one int.from_bytes.
        row_bytes = max(1, (len(meaning_masks) + 7) // 8)
        self._width = 8 * row_bytes
        self._rows = len(configs)
        # planes[b], row c: the half labels that can take position b of c.
        self._planes = tuple(
            int.from_bytes(
                b"".join(
                    [holders[config[b]].to_bytes(row_bytes, "little") for config in configs]
                ),
                "little",
            )
            for b in range(original.problem.delta)
        )
        # The lowest bit of every row, and one full row.
        self._row_starts = int.from_bytes(
            (1).to_bytes(row_bytes, "little") * self._rows, "little"
        )
        self._row_mask = (1 << self._width) - 1
        # The empty subset of a choice: z must take some position.
        self._reach = 0
        for plane in self._planes:
            self._reach |= plane
        self._slots: dict[int, tuple[int, ...]] = {}
        self._cache: dict[tuple[int, ...], int] = {}

    def _slot(self, half_index: int) -> tuple[int, ...]:
        """Per position, the full rows of the configurations where half label
        ``half_index`` can take that position."""
        slot = self._slots.get(half_index)
        if slot is None:
            starts, row = self._row_starts, self._row_mask
            slot = self._slots[half_index] = tuple(
                [(plane >> half_index & starts) * row for plane in self._planes]
            )
        return slot

    def allowed_next(self, choice: tuple[int, ...]) -> int:
        """Half labels ``z`` such that ``choice + (z,)`` is extendable, as a bitmask.

        ``choice`` holds fewer than ``delta`` half-label indices; bit ``z``
        of the answer says whether some original configuration can give the
        ``len(choice) + 1`` slots distinct positions, slot ``s`` a position
        holding a label of its meaning.  With ``delta - 1`` indices that is
        full membership in ``h_{1/2}``.  The answer is a pure function of
        ``choice`` and choices recur across thousands of prefixes, so it is
        memoised.

        Every configuration (row) and every candidate ``z`` (bit of a row)
        is decided at once.  Per row, Hall's condition over the slots plus
        ``z`` reads, for every subset ``S`` of the choice reaching the
        positions ``U``: ``|U| >= |S|`` (the choice alone fits), and ``z``
        takes a position outside ``U`` wherever ``|U| == |S|``.  The empty
        subset is always tight: ``z`` must take some position.
        """
        cached = self._cache.get(choice)
        if cached is not None:
            return cached
        planes = self._planes
        allowed = self._reach
        # unions[s][b]: the rows where some slot of subset s of the choice
        # can take position b.
        unions = [(0,) * len(planes)]
        for index in choice:
            slot = self._slot(index)
            unions += [
                tuple([reached | own for reached, own in zip(union, slot)])
                for union in unions
            ]
        for subset in range(1, len(unions)):
            union = unions[subset]
            size = subset.bit_count()
            # at_least[j]: the rows where the subset reaches j or more positions.
            at_least = [-1] + [0] * (size + 1)
            for reached in union:
                for count in range(size + 1, 0, -1):
                    at_least[count] |= at_least[count - 1] & reached
            tight = at_least[size] & ~at_least[size + 1]
            outside = 0
            for plane, reached in zip(planes, union):
                outside |= plane & ~reached
            allowed &= at_least[size] & (~tight | outside)
            if not allowed:
                break
        # Fold the rows into one: some configuration admits z.
        rows, width = self._rows, self._width
        while rows > 1:
            half = (rows + 1) // 2
            allowed = (allowed & ((1 << half * width) - 1)) | (allowed >> half * width)
            rows = half
        self._cache[choice] = allowed
        return allowed
