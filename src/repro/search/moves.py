"""Mask-native relaxation / hardening move generation for the search.

The search relaxes derived problems with certified moves.  Move *candidates*
are generated and applied directly on the interned bitmask view
(:class:`~repro.core.alphabet.InternedProblem`): a candidate is a small
descriptor (a label index pair, a restriction mask), its application is a
rewrite of the adjacency rows and node configurations, and deduplication,
emptiness and self-move filtering, and the soundness gate -- the row-level
image check certificate verification runs too -- all run before any string
surface exists.  The at most ``max_moves`` survivors become
:class:`~repro.core.problem.Problem` objects whose edge constraints stay
adjacency rows (:class:`~repro.core.problem.EdgeRelation`), with
:class:`~repro.core.relaxation.RelaxationCertificate` label maps: on a
976-label ``Pi_1`` (~373k edge pairs) no string pair is ever built.

Relaxation move families, in deterministic least-relaxing-first order:

* **merge-equivalents** -- collapse strength-equivalent labels to one
  representative each; a bidirectional relaxation, so it never loses
  hardness and is always offered first;
* **drop** -- for a label ``a`` dominated by some ``b`` in the strength
  diagram, remove ``a`` and keep only the ``a``-free configurations: the map
  ``a -> b`` certifies the restricted problem as a relaxation, and because
  replaceability puts every mapped configuration back inside the original
  constraints, this relaxes as little as possible;
* **merge** -- for an arbitrary ordered pair ``(a, b)``, map ``a -> b`` and
  take the *image* problem (the generic Round-Eliminator merge); this can
  genuinely enlarge the constraint sets, trading hardness for a smaller
  description;
* **addarrow** -- the Round-Eliminator-style diagram edit: make ``b`` a safe
  substitute for ``a`` by *adding* every ``a -> b`` replacement variant to
  the constraints.  The identity map certifies the superset problem as a
  relaxation; the alphabet keeps both labels, so this grows the description
  for structure (a subsequent ``drop a`` equals the generic merge) and is
  offered last.

:func:`generate_hardenings` produces the dual Section 4.5 moves for
upper-bound chasing: diagram-guided constraint *restrictions* (keep only the
maximal labels, or shed one dominated label without keeping its rewired
configurations), each passing the same row gate in the other direction (the
target's rows and configurations lie inside the source's).  Hardenings are
at least as hard as their source and are never offered to the lower-bound
driver.

All move families share one strength diagram: the replaceability grid is
computed at most once per interned problem
(:func:`~repro.core.diagram.compute_stronger_masks` caches it on the
instance), so a search branch generating moves for the same derived problem
repeatedly never rebuilds it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.core.alphabet import InternedProblem, LabelMask, intern, iter_bits
from repro.core.canonical import canonical_hash
from repro.core.diagram import compute_stronger_masks
from repro.core.problem import Label, Problem, compacted_rows, image_rows
from repro.core.relaxation import (
    HARDENS,
    RELAXES,
    RelaxationCertificate,
    check_row_image,
)

MERGE_EQUIVALENTS = "merge-equivalents"
DROP = "drop"
ADDARROW = "addarrow"
MERGE = "merge"
HARDEN = "harden"

#: Relaxation move kinds in generation order.
RELAXATION_KINDS = (MERGE_EQUIVALENTS, DROP, MERGE, ADDARROW)


@dataclass(frozen=True)
class RelaxationMove:
    """One certified move from ``source``: the target plus its label map.

    For the relaxation kinds the map certifies ``target`` as no harder than
    ``source``; for :data:`HARDEN` moves the map is the inclusion of a
    restriction and the certificate's direction is
    :data:`~repro.core.relaxation.HARDENS`.  ``detail`` carries the move's
    human-readable parameter (the ``a~>b`` arrow for :data:`ADDARROW`, whose
    identity map encodes nothing) -- structured data, not parsed back out of
    the cosmetic target name.
    """

    kind: str
    source: Problem
    target: Problem
    mapping: dict[Label, Label]
    detail: str = ""

    def certificate(self) -> RelaxationCertificate:
        """The certificate record (maps are validated by the generators)."""
        return RelaxationCertificate(
            source_name=self.source.name,
            target_name=self.target.name,
            mapping=dict(self.mapping),
            direction=HARDENS if self.kind == HARDEN else RELAXES,
        )

    def describe(self) -> str:
        if self.kind == HARDEN:
            dropped = sorted(self.source.labels - self.target.labels)
            return f"{self.kind}[{','.join(dropped)}] -> {self.target.name}"
        if self.kind == ADDARROW:
            # The map is the identity; the arrow is recorded in `detail`.
            return f"{self.kind}[{self.detail}] -> {self.target.name}"
        collapsed = sorted(a for a, b in self.mapping.items() if a != b)
        return f"{self.kind}[{','.join(collapsed)}] -> {self.target.name}"


class _MaskTarget:
    """An index-level candidate target: constraints over the source alphabet.

    ``rows`` holds one adjacency mask per source label (zero for dropped
    labels) and ``node_configs`` sorted source index tuples.  ``image``
    records the move's label map as an index array (``image[i] == i``
    outside the collapse); entries of dropped-without-certifying-map labels
    are ``-1`` only for hardenings, where the certificate is the inclusion,
    not a total map.  The surviving labels, ``label_mask``, are the image.
    """

    __slots__ = ("kind", "name", "label_mask", "rows", "node_configs", "image", "detail")

    # Scratch container: the candidate builders assemble masks and index
    # tuples with plain-int arithmetic, so the fields stay `int` here; the
    # typed LabelMask/LabelIndex surface begins at the Alphabet API that
    # _materialize converts through.
    def __init__(
        self,
        kind: str,
        name: str,
        rows: tuple[int, ...],
        node_configs: tuple[tuple[int, ...], ...],
        image: list[int],
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.name = name
        self.label_mask = 0
        for label in image:
            if label >= 0:
                self.label_mask |= 1 << label
        self.rows = rows
        self.node_configs = node_configs
        self.image = image
        self.detail = detail

    def signature(self) -> tuple[object, ...]:
        return (self.label_mask, self.rows, self.node_configs)

    def is_empty(self) -> bool:
        return not any(self.rows) or not self.node_configs


def _image_target(
    interned: InternedProblem, kind: str, name: str, image: list[int]
) -> _MaskTarget:
    """Apply a total index map: the image problem under the collapse."""
    rows = image_rows(image, interned.adjacency, interned.alphabet.size)
    node_configs = {tuple(sorted(image[i] for i in config)) for config in interned.node_configs}
    return _MaskTarget(kind, name, rows, tuple(sorted(node_configs)), image)


def _drop_target(
    interned: InternedProblem, a: int, b: int, name: str
) -> _MaskTarget:
    """Remove the dominated label ``a``, keeping only ``a``-free configurations.

    The target is a *subset* of the merge image -- the least-relaxing way to
    shed a label; the map ``a -> b`` certifies it (replaceability puts every
    mapped configuration back inside the kept ones).
    """
    bit = 1 << a
    rows = tuple(
        0 if index == a else row & ~bit
        for index, row in enumerate(interned.adjacency)
    )
    with_a = set(interned.configs_with_label(a))
    node_configs = tuple(
        config
        for index, config in enumerate(interned.node_configs)
        if index not in with_a
    )
    image = list(range(interned.alphabet.size))
    image[a] = b
    return _MaskTarget(DROP, name, rows, node_configs, image)


def _addarrow_target(
    interned: InternedProblem, a: int, b: int, name: str
) -> _MaskTarget:
    """Add every ``a -> b`` replacement variant: ``b`` becomes a safe substitute.

    The constraints only grow, so the identity map certifies the target as a
    relaxation; both labels stay in the alphabet.
    """
    rows = list(interned.adjacency)
    bit_a, bit_b = 1 << a, 1 << b
    others = rows[a] & ~bit_a
    # Every allowed {a, y} gains {b, y}; an allowed {a, a} gains the
    # single-replacement variant {a, b} as well as {b, b}.
    for other in iter_bits(others):
        rows[other] |= bit_b
    rows[b] |= others
    if rows[a] & bit_a:
        rows[a] |= bit_b
        rows[b] |= bit_a | bit_b
    node_configs = set(interned.node_configs)
    for index in interned.configs_with_label(a):
        config = list(interned.node_configs[index])
        # Replace one occurrence at a time: a config with k `a`s contributes
        # the variants with 1..k of them turned into `b`.
        while a in config:
            config.remove(a)
            config.append(b)
            node_configs.add(tuple(sorted(config)))
    image = list(range(interned.alphabet.size))
    names = interned.alphabet.names
    return _MaskTarget(
        ADDARROW,
        name,
        tuple(rows),
        tuple(sorted(node_configs)),
        image,
        detail=f"{names[a]}~>{names[b]}",
    )


def _restrict_target(
    interned: InternedProblem, keep_mask: int, name: str
) -> _MaskTarget:
    """The Section 4.5 restriction: keep only configurations inside ``keep_mask``."""
    rows = tuple(
        row & keep_mask if keep_mask >> index & 1 else 0
        for index, row in enumerate(interned.adjacency)
    )
    node_configs = tuple(
        config
        for index, config in enumerate(interned.node_configs)
        if interned.config_supports[index] & ~keep_mask == 0
    )
    image = [
        index if keep_mask >> index & 1 else -1
        for index in range(interned.alphabet.size)
    ]
    return _MaskTarget(HARDEN, name, rows, node_configs, image)


def _relaxation_candidates(
    problem: Problem, interned: InternedProblem
) -> Iterator[_MaskTarget]:
    """Yield mask-level relaxation candidates, least-relaxing first (unchecked).

    The enumeration is lazy: :func:`generate_moves` stops pulling once the
    move cap is full, so the quadratic merge family is never fully applied
    on large alphabets.
    """
    stronger = compute_stronger_masks(interned)
    size = interned.alphabet.size

    # merge-equivalents: collapse each strength-equivalence class to its
    # smallest member (smallest index == lexicographically smallest name).
    image = list(range(size))
    for i in range(size):
        for j in iter_bits(stronger[i]):
            if j >= i:
                break
            if stronger[j] >> i & 1:  # i ~ j with j < i
                image[i] = image[j]
                break
    if any(image[i] != i for i in range(size)):
        yield _image_target(
            interned, MERGE_EQUIVALENTS, f"{problem.name}|merged", image
        )

    names = interned.alphabet.names
    # drop: one candidate per dominated label, certified by its smallest
    # strict dominator (the target only depends on the dropped label).
    dominated_pairs = set()
    for a in range(size):
        strict = stronger[a] & ~(1 << a)
        if strict:
            b = next(iter_bits(strict))
            dominated_pairs.update((a, c) for c in iter_bits(strict))
            yield _drop_target(
                interned, a, b, f"{problem.name}|-{names[a]}"
            )

    # merge: the generic collapse, for pairs not already covered by drop.
    for a in range(size):
        for b in range(size):
            if a == b or (a, b) in dominated_pairs:
                continue
            image = list(range(size))
            image[a] = b
            yield _image_target(
                interned, MERGE, f"{problem.name}|{names[a]}>{names[b]}", image
            )

    # addarrow: only pairs the diagram does not already order (otherwise the
    # replacement variants are all present and the move is a no-op).  Offered
    # after the merges: an addarrow grows the description (it pays off two
    # moves later, when the new domination enables a drop), so it should
    # never crowd description-shrinking moves out of the cap.
    for a in range(size):
        for b in range(size):
            if a == b or stronger[a] >> b & 1:
                continue
            yield _addarrow_target(
                interned, a, b, f"{problem.name}|{names[a]}~>{names[b]}"
            )


def _hardening_candidates(
    problem: Problem, interned: InternedProblem
) -> Iterator[_MaskTarget]:
    """Yield mask-level hardening candidates (diagram-guided restrictions)."""
    stronger = compute_stronger_masks(interned)
    size = interned.alphabet.size
    full = interned.alphabet.full_mask
    names = interned.alphabet.names

    # Keep only the maximal labels: the classical simplification that turns
    # a derived problem into a clean upper-bound problem.  A label is maximal
    # unless some label replaces it without being replaceable back
    # (equivalent labels do not dominate strictly).
    maximal = 0
    for a in range(size):
        others = stronger[a] & ~(1 << a)
        strictly_dominated = any(
            not (stronger[b] >> a & 1) for b in iter_bits(others)
        )
        if not strictly_dominated:
            maximal |= 1 << a
    if maximal and maximal != full:
        yield _restrict_target(interned, maximal, f"{problem.name}|max")

    # Shed one dominated label at a time (without keeping rewired
    # configurations -- this is a restriction, not a drop move).
    for a in range(size):
        if stronger[a] & ~(1 << a):
            yield _restrict_target(
                interned, full & ~(1 << a), f"{problem.name}|!-{names[a]}"
            )


def _passes_gate(interned: InternedProblem, target: _MaskTarget) -> bool:
    """The mask-level soundness gate, the one certification a move gets.

    A generator bug must surface as a skipped move at worst, never as an
    invalid certificate in a chain.  The rows must stay inside the target's
    alphabet (materialisation keeps only those bits), and the row-level
    image check must pass: a relaxation maps the source into the target; a
    hardening's rows and configurations lie inside the source's.
    """
    if any(row & ~target.label_mask for row in target.rows):
        return False
    rows, configs = interned.adjacency, interned.node_configs
    if target.kind == HARDEN:
        return check_row_image(
            target.image, target.rows, target.node_configs, rows, interned.node_config_set
        )
    return check_row_image(
        target.image, rows, configs, target.rows, frozenset(target.node_configs)
    )


def _materialize(
    problem: Problem, interned: InternedProblem, target: _MaskTarget
) -> RelaxationMove:
    """Build the string-surface problem and label map for a surviving candidate.

    Bit positions follow sorted name order, so the kept names stay sorted
    and the compacted rows become the target's
    :class:`~repro.core.problem.EdgeRelation`: no string pair is built.
    """
    alphabet = interned.alphabet
    names = alphabet.names
    kept = [target.label_mask >> index & 1 == 1 for index in range(alphabet.size)]
    built = Problem.from_adjacency(
        name=target.name,
        delta=problem.delta,
        names=alphabet.members(LabelMask(target.label_mask)),
        rows=compacted_rows(target.rows, kept),
        node_configs=[alphabet.config(config) for config in target.node_configs],
    )
    return RelaxationMove(
        kind=target.kind,
        source=problem,
        target=built,
        mapping={names[i]: names[t] for i, t in enumerate(target.image) if t >= 0},
        detail=target.detail,
    )


def _certified_moves(
    problem: Problem,
    candidates: Callable[[Problem, InternedProblem], Iterator[_MaskTarget]],
    max_moves: int,
    dedup_renamings: bool,
) -> list[RelaxationMove]:
    """The first ``max_moves`` candidates that survive the filters, materialised.

    With ``dedup_renamings``, a target that is a label renaming of the
    source or of an earlier move (same canonical hash) is skipped too; the
    hash is memoised on the target, so the search's own dedup of a target
    that compresses to itself does not hash it again.
    """
    if max_moves < 1:
        return []
    interned = intern(problem)
    moves: list[RelaxationMove] = []
    seen_signatures = {
        (interned.alphabet.full_mask, interned.adjacency, interned.node_configs)
    }
    seen_hashes = {canonical_hash(problem)} if dedup_renamings else set()
    for target in candidates(problem, interned):
        if target.is_empty():
            continue
        signature = target.signature()
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        if not _passes_gate(interned, target):
            continue
        move = _materialize(problem, interned, target)
        if dedup_renamings:
            key = canonical_hash(move.target)
            if key in seen_hashes:
                continue
            seen_hashes.add(key)
        moves.append(move)
        if len(moves) >= max_moves:
            break
    return moves


def generate_moves(problem: Problem, max_moves: int = 24) -> list[RelaxationMove]:
    """Certified relaxation moves of ``problem``, deduplicated and capped.

    Candidates are generated and validated at the mask level; targets that
    are degenerate (no allowed configuration left), identical to the source,
    or duplicates of an earlier target (exactly, then up to label renaming
    via canonical hashes, at every problem size) are filtered out.  Every
    returned move's label map has passed the row-level image check
    :func:`~repro.core.relaxation.check_row_image` -- the same check
    :func:`~repro.core.relaxation.is_relaxation_map` runs -- and its target
    keeps its edge constraint as adjacency rows.
    """
    return _certified_moves(problem, _relaxation_candidates, max_moves, dedup_renamings=True)


def generate_hardenings(problem: Problem, max_moves: int = 8) -> list[RelaxationMove]:
    """Certified Section 4.5 hardening moves of ``problem``.

    Each returned move's target is a constraint restriction of ``problem``
    (at least as hard; its solutions solve ``problem`` verbatim): the row
    gate has checked that its rows and configurations lie inside the
    source's, the check
    :func:`~repro.core.relaxation.is_harder_restriction` runs by label
    name.  Degenerate targets (nothing left to output) and exact
    duplicates are filtered.  These moves are for upper-bound chasing and
    are never offered to the lower-bound search.
    """
    return _certified_moves(problem, _hardening_candidates, max_moves, dedup_renamings=False)
