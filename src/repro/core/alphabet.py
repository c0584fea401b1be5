"""Interned label alphabets: the bitmask kernel behind every hot path.

Every derivation in this library ultimately manipulates *sets of labels* and
*multisets of labels* -- half-step labels are subsets of the alphabet, the
Galois connection intersects them, the full step orders them by inclusion,
0-round search unions them, and canonical hashing refines partitions of them.
Representing those sets as ``frozenset[str]`` makes each elementary operation
(a subset test, an intersection, a hash) allocate and walk hash tables of
strings.

This module interns a problem's alphabet into *bit positions* so that a label
set becomes a plain Python ``int`` (a bitmask) and every hot operation
becomes one machine-word-ish integer instruction:

=====================  ==========================
frozenset operation    bitmask equivalent
=====================  ==========================
``a <= b``             ``a & ~b == 0``
``a & b``              ``a & b``
``a | b``              ``a | b``
``len(a)``             ``a.bit_count()``
``hash(a)``            ``hash(int)`` (trivial)
sorted canonical form  the integer itself
=====================  ==========================

The :class:`Alphabet` owns the int<->name mapping, so the string API of
:class:`~repro.core.problem.Problem` remains the only public surface; masks
never leak into wire formats, and result dataclasses keep them only behind
the read-only :class:`MeaningMap`, which reads as names.  :func:`intern`
attaches a cached :class:`InternedProblem` view (index-tuple configurations,
adjacency masks, per-configuration position masks) to each problem, so
repeated derivations over the same problem pay the interning cost once.

Bit positions follow the *sorted order of the label names*.  This invariant
is load-bearing: a tuple of indices in non-decreasing order converts to a
canonically sorted name tuple, and lexicographic comparison of index tuples
equals lexicographic comparison of sorted name lists, which is how the kernel
reproduces the legacy string path's deterministic orderings bit for bit (see
the test-only oracle ``tests/_legacy.py`` and the differential tests).
"""

from __future__ import annotations

import string
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from itertools import compress, count
from typing import TYPE_CHECKING, Literal, cast

from repro.core.problem import Label, Problem

if TYPE_CHECKING:
    from typing import NewType

    from repro.core.canonical import CanonicalForm

    #: A set of labels as an integer bitset over this alphabet's positions.
    LabelMask = NewType("LabelMask", int)
    #: A single bit *position* (0-based index into ``Alphabet.names``).
    LabelIndex = NewType("LabelIndex", int)
    #: The canonical problem hash (``repro.core.canonical.canonical_hash``).
    CanonicalHash = NewType("CanonicalHash", str)
else:
    # Runtime aliases: masks/indices ARE ints and hashes ARE strs; the
    # distinct types exist only for the type checker, so the hot loops pay
    # nothing (``LabelMask(x)`` degrades to the identity ``int(x)``).
    LabelMask = int
    LabelIndex = int
    CanonicalHash = str

#: PR 5's certificate direction tags as a closed type: a certificate step
#: either relaxes (target no harder) or hardens (target no easier).  The
#: runtime constants live in :mod:`repro.core.relaxation`.
Direction = Literal["relaxation", "hardening"]

__all__ = [
    "Alphabet",
    "CanonicalHash",
    "Direction",
    "InternedProblem",
    "LabelIndex",
    "LabelMask",
    "MeaningMap",
    "bit_indices",
    "intern",
    "iter_bits",
    "mask_matching_exists",
    "set_label_name",
    "short_names",
]


#: Maps the binary digits ``"0"``/``"1"`` to false/true selector bytes.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: LabelMask | int) -> Iterator[LabelIndex]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    remaining = int(mask)
    while remaining:
        low = remaining & -remaining
        yield LabelIndex(low.bit_length() - 1)
        remaining ^= low


def bit_indices(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order, as a tuple.

    Selects positions by the mask's binary digits, lowest first: one pass
    in C instead of one generator step per set bit, the faster decoder for
    masks that are not sparse.
    """
    digits = format(mask, "b")[::-1].encode().translate(_BIT_SELECTORS)
    return tuple(compress(count(), digits))


class Alphabet:
    """An immutable interning of label names into bit positions.

    ``names[i]`` is the label at bit ``i``; bits are assigned in sorted name
    order (see the module docstring for why that order matters).
    """

    __slots__ = ("names", "index", "size", "full_mask", "_escaped")

    def __init__(self, labels: Iterable[Label]):
        self.names: tuple[Label, ...] = tuple(sorted(labels))
        self.index: dict[Label, LabelIndex] = {
            name: LabelIndex(i) for i, name in enumerate(self.names)
        }
        self.size: int = len(self.names)
        self.full_mask: LabelMask = LabelMask((1 << self.size) - 1)
        self._escaped: tuple[Label, ...] | None = None

    def bit(self, label: Label) -> LabelMask:
        """The single-bit mask of one label."""
        return LabelMask(1 << self.index[label])

    def mask(self, labels: Iterable[Label]) -> LabelMask:
        """The bitmask of a set of labels."""
        index = self.index
        result = 0
        for label in labels:
            result |= 1 << index[label]
        return LabelMask(result)

    def indices(self, mask: LabelMask) -> tuple[LabelIndex, ...]:
        """The sorted bit positions of ``mask``."""
        return cast("tuple[LabelIndex, ...]", bit_indices(mask))

    def members(self, mask: LabelMask) -> tuple[Label, ...]:
        """The labels of ``mask`` in sorted name order."""
        names = self.names
        return tuple(names[i] for i in iter_bits(mask))

    def mask_name(self, mask: LabelMask) -> Label:
        """The set-valued label name of ``mask``: ``set_label_name(members(mask))``.

        Each member name is escaped once per alphabet, not once per label
        that contains it; bits follow sorted name order, so joining the
        escaped names in bit order is exactly ``set_label_name``'s sort.
        """
        return self.indices_name(iter_bits(mask))

    def indices_name(self, indices: Iterable[LabelIndex]) -> Label:
        """The set-valued label name of already-decoded, increasing bit positions.

        ``indices_name(indices(mask)) == mask_name(mask)``; callers that hold
        the decoded tuple skip a second walk over the mask's bits.
        """
        escaped = self._escaped
        if escaped is None:
            escaped = self._escaped = tuple(_escape_member(name) for name in self.names)
        return "{" + ",".join([escaped[i] for i in indices]) + "}"

    def label_set(self, mask: LabelMask) -> frozenset[Label]:
        """The labels of ``mask`` as a frozenset (the legacy representation)."""
        return frozenset(self.members(mask))

    def config(self, indices: Sequence[LabelIndex]) -> tuple[Label, ...]:
        """Convert a non-decreasing index tuple to a canonical name tuple."""
        names = self.names
        return tuple([names[i] for i in indices])

    def __len__(self) -> int:  # pragma: no cover - convenience
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Alphabet({self.size} labels)"


class InternedProblem:
    """The bitmask view of one :class:`~repro.core.problem.Problem`.

    Attributes
    ----------
    alphabet:
        The label<->bit mapping.
    adjacency:
        ``adjacency[i]`` is the mask of labels ``j`` with ``{i, j}`` in the
        edge constraint -- the singleton polar of label ``i``, and the
        building block of every compatibility / Galois computation.  It is
        the only form of the edge constraint the view holds: relaxation
        checks and move targets work on these rows, never on index pairs.
    node_configs:
        The node constraint as sorted index tuples, in sorted order (which
        coincides with the legacy sorted-name-tuple order).
    node_config_set:
        The same tuples as a set, for O(1) membership tests.
    config_supports:
        Per configuration, the mask of labels occurring in it.
    config_position_masks:
        Per configuration, a dict ``label index -> mask of positions`` (bits
        over ``range(delta)``) where that label sits -- the adjacency the
        set-of-labels realizability matching runs on.
    """

    __slots__ = (
        "problem",
        "alphabet",
        "adjacency",
        "node_configs",
        "node_config_set",
        "config_supports",
        "config_position_masks",
        "_label_configs",
        "_stronger_masks",
        "_canonical_form",
    )

    def __init__(self, problem: Problem):
        self.problem = problem
        alphabet = Alphabet(problem.labels)
        self.alphabet = alphabet
        index = alphabet.index

        # The edge constraint is already adjacency rows over this order.
        self.adjacency: tuple[LabelMask, ...] = cast(
            "tuple[LabelMask, ...]", problem.edge_constraint.masks
        )

        configs = sorted(
            tuple(index[label] for label in config)
            for config in problem.node_constraint
        )
        self.node_configs: tuple[tuple[LabelIndex, ...], ...] = tuple(configs)
        self.node_config_set: frozenset[tuple[LabelIndex, ...]] = frozenset(configs)

        supports = []
        position_masks = []
        for config in configs:
            support = 0
            positions: dict[LabelIndex, int] = {}
            for position, label_index in enumerate(config):
                support |= 1 << label_index
                positions[label_index] = positions.get(label_index, 0) | (1 << position)
            supports.append(support)
            position_masks.append(positions)
        self.config_supports: tuple[LabelMask, ...] = tuple(
            LabelMask(mask) for mask in supports
        )
        self.config_position_masks: tuple[dict[LabelIndex, int], ...] = tuple(
            position_masks
        )
        self._label_configs: tuple[tuple[int, ...], ...] | None = None
        # Strength-diagram cache slot, owned by repro.core.diagram: the move
        # generator and the search driver share one diagram per problem
        # instance instead of recomputing the quadratic replaceability grid
        # per move (see compute_stronger_masks).
        self._stronger_masks: tuple[LabelMask, ...] | None = None
        # Canonical-form slot, owned by repro.core.canonical (every cache
        # and dedup layer keys on it; see canonical_form).
        self._canonical_form: CanonicalForm | None = None

    def configs_with_label(self, label_index: LabelIndex) -> tuple[int, ...]:
        """Indices into ``node_configs`` of the configurations using a label.

        The inverted index is built lazily on first use (diagram computation
        and mask-level move generation scan per-label configuration lists;
        plain derivations never need it) and cached for the problem's
        lifetime.
        """
        if self._label_configs is None:
            per_label: list[list[int]] = [[] for _ in range(self.alphabet.size)]
            for config_index, support in enumerate(self.config_supports):
                for label in iter_bits(support):
                    per_label[label].append(config_index)
            self._label_configs = tuple(tuple(rows) for rows in per_label)
        return self._label_configs[label_index]

    def mask(self, labels: Iterable[Label]) -> LabelMask:
        return self.alphabet.mask(labels)


def intern(problem: Problem) -> InternedProblem:
    """The cached bitmask view of ``problem`` (built once per instance).

    The view is stored in the problem's ``__dict__`` (problems are frozen
    dataclasses, but like ``functools.cached_property`` -- which
    :class:`Problem` already uses -- this bypasses the frozen ``__setattr__``
    without mutating any dataclass field).
    """
    cached = problem.__dict__.get("_interned")
    if cached is None:
        cached = InternedProblem(problem)
        problem.__dict__["_interned"] = cached
    return cached


def mask_matching_exists(position_masks: Sequence[int]) -> bool:
    """True iff every slot can claim a *distinct* position from its mask.

    ``position_masks[s]`` is the bitmask of positions slot ``s`` may take.
    Kuhn's augmenting-path algorithm over bitmask adjacency; instances are
    tiny (at most ``delta`` slots), so the recursion is shallow.
    """
    owner: dict[int, int] = {}

    def augment(slot: int, visited: list[int]) -> bool:
        available = position_masks[slot] & ~visited[0]
        while available:
            low = available & -available
            available ^= low
            visited[0] |= low
            position = low.bit_length() - 1
            holder = owner.get(position)
            if holder is None or augment(holder, visited):
                owner[position] = slot
                return True
        return False

    for slot, mask in enumerate(position_masks):
        if not mask:
            return False
        if not augment(slot, [0]):
            return False
    return True


# -- derived-label naming ----------------------------------------------------
#
# The naming helpers live with the kernel because the Alphabet owns the
# int<->name mapping: every derived label name is produced from a mask via
# these two functions (or Alphabet.mask_name, which is byte-identical to
# set_label_name over the mask's members), and the engine cache's renaming
# translation (repro.engine.cache) must produce byte-identical names.

_ESCAPED = ("\\", "{", "}", ",")


def _escape_member(name: Label) -> Label:
    """Escape a member name so ``set_label_name`` is injective on sets.

    Ordinary labels pass through untouched (so existing derivations keep
    their exact names); only members containing one of ``\\ { } ,`` -- which
    would make distinct sets alias (e.g. ``{"a,b"}`` vs ``{"a", "b"}``) --
    get backslash-escaped.
    """
    if not any(ch in name for ch in _ESCAPED):
        return name
    for ch in _ESCAPED:
        name = name.replace(ch, "\\" + ch)
    return name


def set_label_name(members: Iterable[Label]) -> Label:
    """Canonical display name for a set-valued label: ``{a,b,c}``.

    Members sort by their raw names; members containing braces, commas or
    backslashes are escaped so that distinct sets always get distinct names
    (two distinct escaped member sequences can never join to the same
    string, because escaped members contain no unescaped comma).
    """
    return "{" + ",".join(_escape_member(m) for m in sorted(members)) + "}"


def short_names(count: int, avoid: Collection[Label] = ()) -> list[Label]:
    """Deterministic short label names: A..Z then L26, L27, ...

    Names in ``avoid`` are skipped (the candidate stream keeps advancing, so
    the result stays deterministic): the full step passes the input problem's
    own alphabet here so a derived label can never collide with -- and
    silently shadow -- a pre-existing user label like ``A`` or ``L26``.
    """
    avoid_set = set(avoid)
    letters = string.ascii_uppercase
    names: list[Label] = []
    candidate_index = 0
    while len(names) < count:
        if candidate_index < len(letters):
            candidate = letters[candidate_index]
        else:
            candidate = f"L{candidate_index}"
        candidate_index += 1
        if candidate in avoid_set:
            continue
        names.append(candidate)
    return names


#: The largest :class:`MeaningMap` that keeps the meanings it has decoded.
_MEMO_MAX_LABELS = 256


class MeaningMap(Mapping[Label, frozenset[Label]]):
    """Read-only provenance: each label's meaning as a mask over member names.

    Bit ``i`` of ``masks[label]`` is set iff ``members[i]`` belongs to the
    meaning of ``label``.  ``members`` may be in any order and may name
    anything (a forged certificate's provenance is still representable, and
    still rejected by verification); a meaning is decoded into a frozenset
    only when it is read.  :meth:`renamed` renames the members and shares
    ``masks``, which is what makes a renamed-twin cache hit cost
    O(members) instead of O(labels x members) (:mod:`repro.engine.cache`).
    The map has no mutators, so results that share it cannot poison each
    other; equality is ``Mapping`` equality, so it equals the plain dict of
    the same meanings.
    """

    __slots__ = ("members", "masks", "_decoded")

    def __init__(self, members: Sequence[Label], masks: Mapping[Label, int]):
        self.members: tuple[Label, ...] = tuple(members)
        self.masks = masks
        # Meanings already read, kept only by small maps (see __getitem__).
        self._decoded: dict[Label, frozenset[Label]] = {}

    @classmethod
    def of(cls, meanings: Mapping[Label, Iterable[Label]]) -> MeaningMap:
        """The map of ``meanings`` (returned as is when it already is one).

        Members get bit positions in order of first appearance.
        """
        if isinstance(meanings, MeaningMap):
            return meanings
        bit_of: dict[Label, int] = {}
        masks: dict[Label, int] = {}
        for label, members in meanings.items():
            mask = 0
            for member in members:
                bit = bit_of.get(member)
                if bit is None:
                    bit = bit_of[member] = 1 << len(bit_of)
                mask |= bit
            masks[label] = mask
        return cls(tuple(bit_of), masks)

    def renamed(self, rename: Mapping[Label, Label]) -> MeaningMap:
        """The same meanings over renamed members (``rename`` must be injective)."""
        return MeaningMap([rename[member] for member in self.members], self.masks)

    def masks_over(self, alphabet: Alphabet, labels: Iterable[Label]) -> list[LabelMask]:
        """The meanings of ``labels`` as masks over ``alphabet``'s bit positions."""
        masks = self.masks
        if self.members == alphabet.names:
            return [LabelMask(masks[label]) for label in labels]
        return [alphabet.mask(self[label]) for label in labels]

    def __getitem__(self, label: Label) -> frozenset[Label]:
        """Decode one meaning; a small map keeps it for the next read.

        Pi_{1/2}'s meanings are what every Pi_1 meaning is made of, so
        expanding provenance reads them over and over, and one shared
        frozenset per label beats one per read.  A map of more than
        ``_MEMO_MAX_LABELS`` labels (a large Pi_1, which the cache keeps for
        the life of the process without weighing its meanings) decodes each
        read afresh, so reading it does not pin its frozensets.
        """
        meaning = self._decoded.get(label)
        if meaning is None:
            members = self.members
            meaning = frozenset([members[i] for i in bit_indices(self.masks[label])])
            if len(self.masks) <= _MEMO_MAX_LABELS:
                self._decoded[label] = meaning
        return meaning

    def __contains__(self, label: object) -> bool:
        return label in self.masks

    def __iter__(self) -> Iterator[Label]:
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MeaningMap) and self.members == other.members:
            return self.masks == other.masks
        return super().__eq__(other)

    def __reduce__(self) -> tuple[object, ...]:
        return (MeaningMap, (self.members, self.masks))

    def __repr__(self) -> str:
        return f"MeaningMap({dict(self.items())!r})"
