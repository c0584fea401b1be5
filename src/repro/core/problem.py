"""The paper's notion of a locally checkable problem, instantiated at fixed degree.

Section 3 of the paper defines a problem as a tuple ``(O, f, g, h)``:

* ``O`` -- a set of output labels,
* ``f(delta)`` -- the finite subset of ``O`` usable at maximum degree delta,
* ``g(delta)`` -- the allowed *edge configurations*: 2-element multisets of
  labels, one label per endpoint of the edge,
* ``h(delta)`` -- the allowed *node configurations*: multisets of at most
  delta labels, one label per incident edge (per port).

A :class:`Problem` is the instantiation at one fixed ``delta``: a finite label
set, a set of 2-multisets (edge constraint) and a set of ``delta``-multisets
(node constraint).  Multisets are canonical sorted tuples of label strings
(see :mod:`repro.utils.multiset`).

Degree-indexed families -- the paper's actual ``(O, f, g, h)`` -- live in
:mod:`repro.core.family`; everything the speedup engine does happens at a
fixed delta, exactly as in Theorem 1, which speaks about graph classes
``G_{n, delta}``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Any

from repro.utils.multiset import multiset

Label = str
EdgeConfig = tuple[Label, Label]
NodeConfig = tuple[Label, ...]


def edge_config(a: Label, b: Label) -> EdgeConfig:
    """Return the canonical (sorted) 2-multiset for an edge configuration."""
    return (a, b) if a <= b else (b, a)


def node_config(labels: Iterable[Label]) -> NodeConfig:
    """Return the canonical (sorted) multiset for a node configuration."""
    return multiset(labels)


class ProblemError(ValueError):
    """Raised when a problem description is malformed."""


def _mentioned(configs: Iterable[tuple[Label, ...]]) -> frozenset[Label]:
    """Every label occurring in some configuration."""
    return frozenset(chain.from_iterable(configs))


#: ``bytes.translate`` table turning a binary digit string into 0/1 bytes,
#: the selector stream ``itertools.compress`` reads when a row is expanded.
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

#: The image of a label an index map drops (see :func:`row_images`).
UNMAPPED = -1


def row_images(image: Sequence[int], rows: Iterable[int]) -> Iterator[int]:
    """The image of each adjacency row under the index map ``image``.

    Bit ``image[j]`` is set for every neighbour ``j`` with ``image[j] !=
    UNMAPPED``.  Labels are grouped by their index shift ``image[j] - j``,
    and each group moves as one masked shift: the runs of a compaction, a
    merge or a rename cost one shift per row each, not one step per
    neighbour.  This is the one row translation every label transform
    (compaction, renaming, relaxation checks) runs on.
    """
    by_shift: dict[int, int] = {}
    for index, target in enumerate(image):
        if target != UNMAPPED:
            shift = target - index
            by_shift[shift] = by_shift.get(shift, 0) | 1 << index
    groups = list(by_shift.items())
    for row in rows:
        mapped = 0
        for shift, mask in groups:
            part = row & mask
            if part:
                mapped |= part << shift if shift >= 0 else part >> -shift
        yield mapped


def image_rows(image: Sequence[int], rows: Iterable[int], size: int) -> tuple[int, ...]:
    """The ``size`` rows of the image relation under the total index map
    ``image``: row ``i``, translated, is merged into row ``image[i]``."""
    merged = [0] * size
    for target, row in zip(image, row_images(image, rows)):
        merged[target] |= row
    return tuple(merged)


def compacted_rows(rows: Sequence[int], kept: Sequence[bool]) -> tuple[int, ...]:
    """The rows of the kept labels, re-indexed to the kept labels in order."""
    image: list[int] = []
    position = 0
    for keep in kept:
        image.append(position if keep else UNMAPPED)
        position += keep
    return tuple(row_images(image, compress(rows, kept)))


class EdgeRelation(AbstractSet[EdgeConfig]):
    """An edge constraint held as one symmetric adjacency mask per label.

    ``names`` lists the labels in sorted raw-name order (the order of
    :class:`repro.core.alphabet.Alphabet`); bit ``j`` of ``masks[i]`` is set
    iff ``{names[i], names[j]}`` is allowed.  Every :class:`Problem` holds
    its edge constraint in this form, over its own sorted labels: the
    paper's existential edge constraint of a derived problem is fully
    described by one adjacency mask per derived label, while the canonical
    ``(low, high)`` string pairs can run to tens of millions.

    The relation is an immutable set of canonical pairs, equal to (and
    hash-compatible with) the ``frozenset`` of those pairs.  ``len`` is
    O(1) and ``in`` is a name lookup plus a bit test.  The string pairs are
    built only when a caller reads them, once, and kept: iteration walks
    them in sorted order, and hashing and every other set operation
    delegate to a ``frozenset`` of them (so set operators return a plain
    ``frozenset``).
    """

    __slots__ = ("names", "masks", "_size", "_index", "_pairs", "_set")

    def __init__(self, names: tuple[Label, ...], masks: tuple[int, ...]):
        self.names = names
        self.masks = masks
        # Each off-diagonal pair sets two bits, a self-pair one.
        bits = sum(mask.bit_count() for mask in masks)
        loops = sum((mask >> index) & 1 for index, mask in enumerate(masks))
        self._size: int = (bits + loops) // 2
        self._index: dict[Label, int] | None = None
        self._pairs: tuple[EdgeConfig, ...] | None = None
        self._set: frozenset[EdgeConfig] | None = None

    def mentioned(self) -> frozenset[Label]:
        """The labels occurring in some pair, in O(labels)."""
        return frozenset(name for name, mask in zip(self.names, self.masks) if mask)

    def _sorted_pairs(self) -> tuple[EdgeConfig, ...]:
        """The canonical string pairs in sorted order, built once and kept.

        A tuple rather than only the ``frozenset``: walking pairs in the
        order they were allocated is several times faster than walking a
        hash table of them, and sorting a sorted sequence is linear.
        """
        pairs = self._pairs
        if pairs is None:
            names = self.names

            def rows() -> Iterator[Iterator[EdgeConfig]]:
                # Names are sorted, so row i's pairs are (names[i], names[j])
                # for the set bits j >= i, in order: canonical and sorted.
                for index, mask in enumerate(self.masks):
                    upper = mask >> index
                    if upper:
                        selectors = format(upper, "b")[::-1].encode().translate(_BIT_DIGITS)
                        yield zip(repeat(names[index]), compress(names[index:], selectors))

            pairs = self._pairs = tuple(list(chain.from_iterable(rows())))
        return pairs

    def _view(self) -> frozenset[EdgeConfig]:
        """The string pairs as a ``frozenset``, built once and kept."""
        if self._set is None:
            self._set = frozenset(self._sorted_pairs())
        return self._set

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            hash(item)  # an unhashable probe raises, as with a frozenset
            return False
        index = self._index
        if index is None:
            index = self._index = {name: i for i, name in enumerate(self.names)}
        first = index.get(item[0])
        second = index.get(item[1])
        if first is None or second is None or second < first:
            return False
        return bool((self.masks[first] >> second) & 1)

    def __iter__(self) -> Iterator[EdgeConfig]:
        return iter(self._sorted_pairs())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeRelation):
            if other.names == self.names:
                return other.masks == self.masks
            return len(self) == len(other) and self._view() == other._view()
        if isinstance(other, AbstractSet):
            return len(self) == len(other) and self._view() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._view())

    def __reduce__(self) -> tuple[type, tuple[tuple[Label, ...], tuple[int, ...]]]:
        # Names and masks only: the string pairs are rebuilt on demand.
        return (EdgeRelation, (self.names, self.masks))

    def __repr__(self) -> str:
        return f"EdgeRelation({len(self)} pairs over {len(self.names)} labels)"


def _delegate_to_view(name: str) -> Callable[[EdgeRelation, object], object]:
    """``EdgeRelation.<name>`` as the string view's own ``frozenset`` method.

    The frozenset method returns ``NotImplemented`` exactly where a
    frozenset's would, so operand types and reflected operators behave as
    they do for the plain set.
    """
    method = getattr(frozenset, name)

    def delegated(self: EdgeRelation, other: object) -> object:
        if isinstance(other, EdgeRelation):
            other = other._view()
        return method(self._view(), other)

    delegated.__name__ = name
    return delegated


for _name in (
    "__le__", "__lt__", "__ge__", "__gt__",
    "__and__", "__rand__", "__or__", "__ror__",
    "__sub__", "__rsub__", "__xor__", "__rxor__",
    "isdisjoint",
):
    setattr(EdgeRelation, _name, _delegate_to_view(_name))


def _rows_within(edges: EdgeRelation, labels: AbstractSet[Label]) -> EdgeRelation:
    """The pairs of ``edges`` within ``labels``, as rows over those labels."""
    kept = [name in labels for name in edges.names]
    return EdgeRelation(tuple(compress(edges.names, kept)), compacted_rows(edges.masks, kept))


def _configs_within(
    nodes: frozenset[NodeConfig], labels: frozenset[Label]
) -> frozenset[NodeConfig]:
    return frozenset(config for config in nodes if labels.issuperset(config))


@dataclass(frozen=True, init=False)
class Problem:
    """A locally checkable problem at a fixed maximum degree.

    Attributes
    ----------
    name:
        Human-readable identifier, carried through derivations.
    delta:
        The degree parameter; node configurations have exactly ``delta``
        entries.  (The paper allows "at most delta"; on the regular graph
        classes all lower bounds are proved for, configurations have exactly
        delta entries, and sub-delta nodes can be modelled by adding an
        explicit pad label, so we fix the arity.)
    labels:
        The finite output alphabet ``f(delta)``.
    edge_constraint:
        The allowed 2-multisets ``g(delta)``: an :class:`EdgeRelation`, one
        adjacency row per label over ``tuple(sorted(labels))``, equal to the
        ``frozenset`` of its canonical sorted pairs.  The constructor also
        takes any set of canonical pairs and stores it as those rows.
    node_constraint:
        The allowed ``delta``-multisets ``h(delta)``, canonical sorted tuples.
    """

    name: str
    delta: int
    labels: frozenset[Label]
    edge_constraint: EdgeRelation
    node_constraint: frozenset[NodeConfig]

    def __init__(
        self,
        name: str,
        delta: int,
        labels: frozenset[Label],
        edge_constraint: AbstractSet[EdgeConfig],
        node_constraint: frozenset[NodeConfig],
    ) -> None:
        # Validation runs once, where a problem enters the system (internal
        # transforms use ``_from_canonical``).  Entering problems -- disk
        # cache loads of derived problems included -- can carry hundreds of
        # thousands of pairs, so each pair and configuration is checked with
        # direct comparisons, no per-item ``sorted(...)`` / ``set(...)``
        # round-trips, while raising the exact same errors.  Pairs become
        # adjacency rows over the sorted labels as they are checked.
        if delta < 1:
            raise ProblemError("delta must be at least 1")
        names = tuple(sorted(labels))
        edges = edge_constraint
        if isinstance(edges, EdgeRelation) and edges.names == names:
            # Rows over this alphabet are checked in O(labels), never as
            # string pairs; any other set is read pair by pair.
            if len(edges.masks) != len(names) or any(mask >> len(names) for mask in edges.masks):
                raise ProblemError(f"malformed adjacency rows over {len(names)} labels")
        else:
            position = {label: index for index, label in enumerate(names)}
            rows = [0] * len(names)
            for pair in edges:
                if len(pair) != 2:
                    raise ProblemError(f"edge configuration {pair!r} is not a pair")
                first, second = pair
                if second < first:
                    raise ProblemError(f"edge configuration {pair!r} is not canonical")
                low, high = position.get(first), position.get(second)
                if low is None or high is None:
                    raise ProblemError(f"edge configuration {pair!r} uses unknown labels")
                rows[low] |= 1 << high
                rows[high] |= 1 << low
            edges = EdgeRelation(names, tuple(rows))
        for config in node_constraint:
            if len(config) != delta:
                raise ProblemError(
                    f"node configuration {config!r} does not have {delta} entries"
                )
            for index in range(len(config) - 1):
                if config[index + 1] < config[index]:
                    raise ProblemError(f"node configuration {config!r} is not canonical")
            for label in config:
                if label not in labels:
                    raise ProblemError(
                        f"node configuration {config!r} uses unknown labels"
                    )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edge_constraint", edges)
        object.__setattr__(self, "node_constraint", node_constraint)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def _from_canonical(
        cls,
        name: str,
        delta: int,
        labels: frozenset[Label],
        edge_constraint: EdgeRelation,
        node_constraint: frozenset[NodeConfig],
    ) -> "Problem":
        """Trusted constructor that skips the constructor's validation.

        Invariants are checked once, where a problem enters the system:
        ``Problem(...)``, :meth:`make`, :meth:`from_adjacency` and
        :meth:`from_dict`.  This
        constructor is for transforms whose input was already validated and
        which preserve the invariants by construction (an
        :class:`EdgeRelation` whose names are ``tuple(sorted(labels))``,
        canonical sorted node tuples of ``delta`` labels each, every label
        in ``labels``), so re-checking what can be hundreds of thousands of
        pairs would only repeat work.  The pickle path
        (:meth:`__setstate__`) likewise restores fields unchecked.

        Sanctioned callers: this module's transforms (:meth:`with_name`,
        :meth:`compressed`, :meth:`restricted`, :meth:`renamed`) and the half
        and full steps in :mod:`repro.core.speedup`, which emit adjacency
        rows and sorted tuples over their own freshly minted alphabets.
        Everything else goes through ``Problem(...)`` or :meth:`make`; the
        ``trusted-constructor`` lint rule enforces this.
        """
        problem = object.__new__(cls)
        object.__setattr__(problem, "name", name)
        object.__setattr__(problem, "delta", delta)
        object.__setattr__(problem, "labels", labels)
        object.__setattr__(problem, "edge_constraint", edge_constraint)
        object.__setattr__(problem, "node_constraint", node_constraint)
        return problem

    @staticmethod
    def from_adjacency(
        name: str,
        delta: int,
        names: tuple[Label, ...],
        rows: tuple[int, ...],
        node_configs: Iterable[NodeConfig],
    ) -> "Problem":
        """Build a problem whose edge constraint stays adjacency rows.

        ``names`` is the sorted alphabet and bit ``j`` of the symmetric row
        ``rows[i]`` allows ``{names[i], names[j]}``: the
        :class:`EdgeRelation` form, validated without building a string pair.
        """
        edges = EdgeRelation(names, rows)
        return Problem(name, delta, frozenset(names), edges, frozenset(node_configs))

    @staticmethod
    def make(
        name: str,
        delta: int,
        edge_configs: Iterable[Iterable[Label]],
        node_configs: Iterable[Iterable[Label]],
        labels: Iterable[Label] | None = None,
    ) -> "Problem":
        """Build a problem, canonicalising configurations.

        If ``labels`` is omitted, the alphabet is inferred as the union of
        labels mentioned by the constraints.
        """
        edges = frozenset(edge_config(*sorted(pair)) for pair in map(list, edge_configs))
        nodes = frozenset(node_config(config) for config in node_configs)
        if labels is None:
            inferred: set[Label] = set()
            for pair in edges:
                inferred.update(pair)
            for config in nodes:
                inferred.update(config)
            label_set = frozenset(inferred)
        else:
            label_set = frozenset(labels)
        return Problem(
            name=name,
            delta=delta,
            labels=label_set,
            edge_constraint=edges,
            node_constraint=nodes,
        )

    # -- queries ------------------------------------------------------------

    def allows_edge(self, a: Label, b: Label) -> bool:
        """Return True iff the multiset {a, b} is an allowed edge configuration."""
        return edge_config(a, b) in self.edge_constraint

    def allows_node(self, labels: Iterable[Label]) -> bool:
        """Return True iff the multiset of ``labels`` is an allowed node configuration."""
        return node_config(labels) in self.node_constraint

    @cached_property
    def usable_labels(self) -> frozenset[Label]:
        """Labels that occur in both some edge and some node configuration.

        Only these can appear in a correct solution (the paper's compression
        remark in Section 4.2).
        """
        return self.edge_constraint.mentioned() & _mentioned(self.node_constraint)

    @cached_property
    def is_empty(self) -> bool:
        """True iff no output can ever be valid (no node or edge configuration)."""
        return not self.node_constraint or not self.edge_constraint

    # -- transformations ------------------------------------------------------

    def with_name(self, name: str) -> "Problem":
        """This problem under another name, sharing its validated relations.

        Returns ``self`` when the name is unchanged (problems are immutable).
        """
        if name == self.name:
            return self
        return Problem._from_canonical(
            name, self.delta, self.labels, self.edge_constraint, self.node_constraint
        )

    def compressed(self, name: str | None = None) -> "Problem":
        """Drop labels that cannot occur in any correct solution.

        Removing a label invalidates configurations that mention it, which can
        make further labels unusable, so the pruning iterates to a fixpoint.
        The resulting problem has the same solutions as the original.  When
        no label drops (every derived problem is already compressed), no
        relation is copied.
        """
        name = name if name is not None else self.name
        labels = self.usable_labels
        if len(labels) == len(self.labels):
            return self.with_name(name)
        edges = self.edge_constraint
        nodes = self.node_constraint
        while True:
            edges = _rows_within(edges, labels)
            nodes = _configs_within(nodes, labels)
            usable = edges.mentioned() & _mentioned(nodes)
            if usable == labels:
                break
            labels = usable
        return Problem._from_canonical(name, self.delta, labels, edges, nodes)

    def renamed(
        self, mapping: Mapping[Label, Label], name: str | None = None
    ) -> "Problem":
        """Apply an injective label renaming.

        Raises :class:`ProblemError` if ``mapping`` is not injective on the
        problem's labels or does not cover all of them.
        """
        missing = self.labels - set(mapping)
        if missing:
            raise ProblemError(f"renaming does not cover labels {sorted(missing)}")
        images = [mapping[label] for label in self.labels]
        if len(set(images)) != len(images):
            raise ProblemError("renaming is not injective")
        # A bijection of a valid problem's labels, re-sorted per configuration,
        # yields a valid problem: no re-validation needed.  The rows follow
        # their labels to the renamed alphabet's sorted order.
        names = tuple(sorted(images))
        position = {label: index for index, label in enumerate(names)}
        edges = self.edge_constraint
        image = [position[mapping[label]] for label in edges.names]
        return Problem._from_canonical(
            name if name is not None else self.name,
            self.delta,
            frozenset(images),
            EdgeRelation(names, image_rows(image, edges.masks, len(names))),
            frozenset(
                node_config(mapping[label] for label in config)
                for config in self.node_constraint
            ),
        )

    def restricted(self, keep: Iterable[Label], name: str | None = None) -> "Problem":
        """Return the sub-problem using only the labels in ``keep``.

        This is the *hardening* direction from Section 2.1 (dual of
        relaxation): a solution of the restricted problem is a solution of the
        original, so the restriction is at least as hard.
        """
        keep_set = frozenset(keep)
        unknown = keep_set - self.labels
        if unknown:
            raise ProblemError(f"cannot restrict to unknown labels {sorted(unknown)}")
        name = name if name is not None else f"{self.name}|restricted"
        if len(keep_set) == len(self.labels):
            return self.with_name(name)
        return Problem._from_canonical(
            name,
            self.delta,
            keep_set,
            _rows_within(self.edge_constraint, keep_set),
            _configs_within(self.node_constraint, keep_set),
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready description of the problem (inverse of :meth:`from_dict`).

        This is the wire format used by the engine's on-disk cache and the
        ``python -m repro`` CLI: plain lists, deterministically sorted, so the
        output is stable across runs and diff-friendly.
        """
        return {
            "name": self.name,
            "delta": self.delta,
            "labels": sorted(self.labels),
            "edge_constraint": [list(pair) for pair in sorted(self.edge_constraint)],
            "node_constraint": [list(cfg) for cfg in sorted(self.node_constraint)],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Problem":
        """Rebuild a problem from :meth:`to_dict` output.

        Raises :class:`ProblemError` on missing keys or malformed payloads.
        """
        try:
            name = data["name"]
            delta = data["delta"]
            labels = data["labels"]
            edges = data["edge_constraint"]
            nodes = data["node_constraint"]
        except (KeyError, TypeError) as exc:
            raise ProblemError(f"problem payload is missing key {exc}") from exc
        if not isinstance(name, str) or not isinstance(delta, int):
            raise ProblemError("problem payload has malformed 'name' or 'delta'")
        try:
            return Problem.make(
                name=name,
                delta=delta,
                edge_configs=edges,
                node_configs=nodes,
                labels=labels,
            )
        except ProblemError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProblemError(f"malformed problem payload: {exc}") from exc

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        """Pickle only the declared fields.

        ``__dict__`` accumulates derived state -- ``cached_property`` values
        and the interned bitmask view attached by
        :func:`repro.core.alphabet.intern` -- that can dwarf the description
        itself on large derived problems.  Process-pool transfers (search
        states, task results) must ship the five fields and let the receiver
        re-derive.
        """
        from dataclasses import fields

        return {field.name: getattr(self, field.name) for field in fields(self)}

    def __setstate__(self, state: dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable description of the problem."""
        lines = [f"problem {self.name} (delta={self.delta})"]
        lines.append("labels: " + " ".join(sorted(self.labels)))
        lines.append("node configurations:")
        for config in sorted(self.node_constraint):
            lines.append("  " + " ".join(config))
        lines.append("edge configurations:")
        for pair in sorted(self.edge_constraint):
            lines.append("  " + " ".join(pair))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Problem({self.name!r}, delta={self.delta}, "
            f"|labels|={len(self.labels)}, |edge|={len(self.edge_constraint)}, "
            f"|node|={len(self.node_constraint)})"
        )

    # -- metrics ---------------------------------------------------------------

    @property
    def description_size(self) -> int:
        """A size measure of the problem description (for growth experiments).

        Counts every label occurrence in every configuration plus the
        alphabet size; this is the quantity whose per-step explosion motivates
        the paper's relaxation technique (Section 2.1).  Every edge
        configuration has 2 entries and every node configuration ``delta``.
        """
        return (
            len(self.labels)
            + 2 * len(self.edge_constraint)
            + self.delta * len(self.node_constraint)
        )
