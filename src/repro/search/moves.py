"""Mask-native relaxation / hardening move generation for the search.

The search relaxes derived problems with certified moves.  Move *candidates*
are generated and applied directly on the interned bitmask view
(:class:`~repro.core.alphabet.InternedProblem`): a candidate is a small
descriptor (a label index pair, a restriction mask), its application is an
index-level rewrite of the interned constraint sets, and deduplication,
emptiness and self-move filtering, and the soundness gate all run before any
string surface exists.  Only the candidates that survive -- at most
``max_moves`` of them -- are materialised into :class:`~repro.core.problem.
Problem` objects with :class:`~repro.core.relaxation.RelaxationCertificate`
label maps.  On large derived alphabets (a 976-label ``Pi_1`` has ~950k
ordered label pairs) this is the difference between move generation dying in
string rewrites and finishing in milliseconds.

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
configurations), each certified by
:func:`~repro.core.relaxation.certify_hardening`.  Hardenings are at least
as hard as their source and are never offered to the lower-bound driver.

All move families share one strength diagram: the replaceability grid is
computed at most once per interned problem
(:func:`~repro.core.diagram.compute_stronger_masks` caches it on the
instance), so a search branch generating moves for the same derived problem
repeatedly never rebuilds it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.alphabet import InternedProblem, intern, iter_bits
from repro.core.canonical import canonical_hash
from repro.core.diagram import compute_stronger_masks
from repro.core.problem import Label, Problem
from repro.core.relaxation import (
    HARDENS,
    RELAXES,
    RelaxationCertificate,
    certify_hardening,
    certify_relaxation,
    check_index_image,
)

MERGE_EQUIVALENTS = "merge-equivalents"
DROP = "drop"
ADDARROW = "addarrow"
MERGE = "merge"
HARDEN = "harden"

# Above this description size, the rename-twin dedup and the redundant
# string-level re-certification are skipped.  Measured on a 2-vCPU host on
# the 976-label weak-3-coloring Pi_1 (size 747,838): ``generate_moves(
# max_moves=24)`` takes 28-30 s without them; hashing its 24 targets would
# add about 20 s (0.5-0.8 s each: a target is frozenset-backed, so interning
# rebuilds the adjacency from ~373k string pairs, while the mask-backed Pi_1
# itself hashes in 0.22-0.27 s) and the re-certification about 7 s more.
# The exact-signature dedup and the mask-level soundness gate always run;
# the search driver canonically dedups its beam candidates anyway, so a
# rename-twin slipping through costs a slot, never soundness.
_EXPENSIVE_TARGET_SIZE = 50_000

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

    ``label_mask`` is the mask of surviving source labels; ``edge_pairs`` and
    ``node_configs`` use source label indices.  ``image`` records the move's
    label map as an index array (``image[i] == i`` outside the collapse);
    entries of dropped-without-certifying-map labels are ``-1`` only for
    hardenings, where the certificate is the inclusion, not a total map.
    """

    __slots__ = (
        "kind",
        "name",
        "label_mask",
        "edge_pairs",
        "node_configs",
        "image",
        "detail",
    )

    # Scratch container: the candidate builders assemble masks and index
    # tuples with plain-int arithmetic, so the fields stay `int` here; the
    # typed LabelMask/LabelIndex surface begins at the Alphabet API that
    # _materialize converts through.
    def __init__(
        self,
        kind: str,
        name: str,
        label_mask: int,
        edge_pairs: frozenset[tuple[int, int]],
        node_configs: tuple[tuple[int, ...], ...],
        image: list[int],
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.name = name
        self.label_mask = label_mask
        self.edge_pairs = edge_pairs
        self.node_configs = node_configs
        self.image = image
        self.detail = detail

    def signature(self) -> tuple[object, ...]:
        return (self.label_mask, self.edge_pairs, self.node_configs)

    def is_empty(self) -> bool:
        return not self.edge_pairs or not self.node_configs


def _source_signature(interned: InternedProblem) -> tuple[object, ...]:
    return (
        interned.alphabet.full_mask,
        interned.edge_pairs,
        interned.node_configs,
    )


def _image_target(
    interned: InternedProblem, kind: str, name: str, image: list[int]
) -> _MaskTarget:
    """Apply a total index map: the image problem under the collapse."""
    edge_pairs = set()
    for a, b in interned.edge_pairs:
        ia, ib = image[a], image[b]
        edge_pairs.add((ia, ib) if ia <= ib else (ib, ia))
    node_configs = tuple(
        sorted(
            {
                tuple(sorted(image[i] for i in config))
                for config in interned.node_configs
            }
        )
    )
    label_mask = 0
    for index in range(interned.alphabet.size):
        label_mask |= 1 << image[index]
    return _MaskTarget(
        kind, name, label_mask, frozenset(edge_pairs), node_configs, image
    )


def _drop_target(
    interned: InternedProblem, a: int, b: int, name: str
) -> _MaskTarget:
    """Remove the dominated label ``a``, keeping only ``a``-free configurations.

    The target is a *subset* of the merge image -- the least-relaxing way to
    shed a label; the map ``a -> b`` certifies it (replaceability puts every
    mapped configuration back inside the kept ones).
    """
    bit = 1 << a
    edge_pairs = frozenset(
        pair for pair in interned.edge_pairs if a not in pair
    )
    with_a = set(interned.configs_with_label(a))
    node_configs = tuple(
        config
        for index, config in enumerate(interned.node_configs)
        if index not in with_a
    )
    image = list(range(interned.alphabet.size))
    image[a] = b
    return _MaskTarget(
        DROP, name, interned.alphabet.full_mask & ~bit, edge_pairs, node_configs, image
    )


def _addarrow_target(
    interned: InternedProblem, a: int, b: int, name: str
) -> _MaskTarget:
    """Add every ``a -> b`` replacement variant: ``b`` becomes a safe substitute.

    The constraints only grow, so the identity map certifies the target as a
    relaxation; both labels stay in the alphabet.
    """
    edge_pairs = set(interned.edge_pairs)
    for x, y in interned.edge_pairs:
        if a in (x, y):
            nx = b if x == a else x
            ny = b if y == a else y
            edge_pairs.add((nx, ny) if nx <= ny else (ny, nx))
            # Both endpoints were `a`: the single-replacement variant too.
            if x == a and y == a:
                edge_pairs.add((a, b) if a <= b else (b, a))
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
        interned.alphabet.full_mask,
        frozenset(edge_pairs),
        tuple(sorted(node_configs)),
        image,
        detail=f"{names[a]}~>{names[b]}",
    )


def _restrict_target(
    interned: InternedProblem, keep_mask: int, name: str
) -> _MaskTarget:
    """The Section 4.5 restriction: keep only configurations inside ``keep_mask``."""
    edge_pairs = frozenset(
        (a, b)
        for a, b in interned.edge_pairs
        if keep_mask >> a & 1 and keep_mask >> b & 1
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
    return _MaskTarget(HARDEN, name, keep_mask, edge_pairs, node_configs, image)


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


def _materialize(
    problem: Problem, interned: InternedProblem, target: _MaskTarget
) -> RelaxationMove:
    """Build the string-surface problem and label map for a surviving candidate."""
    alphabet = interned.alphabet
    names = alphabet.names
    # Bit positions follow sorted name order, so index-sorted pairs and
    # tuples convert directly to canonical name configurations; Problem.make
    # re-canonicalises them (a no-op here) so materialisation cannot bypass
    # the validated construction path.
    built = Problem.make(
        name=target.name,
        delta=problem.delta,
        edge_configs=((names[a], names[b]) for a, b in target.edge_pairs),
        node_configs=(alphabet.config(config) for config in target.node_configs),
        labels=(names[i] for i in iter_bits(target.label_mask)),
    )
    if target.kind == HARDEN:
        mapping = {names[i]: names[i] for i in iter_bits(target.label_mask)}
    else:
        mapping = {
            names[i]: names[target.image[i]] for i in range(alphabet.size)
        }
    return RelaxationMove(
        kind=target.kind,
        source=problem,
        target=built,
        mapping=mapping,
        detail=target.detail,
    )


def generate_moves(problem: Problem, max_moves: int = 24) -> list[RelaxationMove]:
    """Certified relaxation moves of ``problem``, deduplicated and capped.

    Candidates are generated and validated at the mask level; targets that
    are degenerate (no allowed configuration left), identical to the source,
    or duplicates of an earlier target (exactly, then up to label renaming
    via canonical hashes) are filtered out before materialisation.  Every
    returned move's label map has been validated twice: by
    :func:`~repro.core.relaxation.check_index_image` on the interned view
    and -- for the survivors only -- by the string-level
    :func:`~repro.core.relaxation.certify_relaxation`.
    """
    if max_moves < 1:
        return []
    interned = intern(problem)
    expensive = problem.description_size > _EXPENSIVE_TARGET_SIZE
    moves: list[RelaxationMove] = []
    seen_signatures = {_source_signature(interned)}
    seen_hashes = set() if expensive else {canonical_hash(problem)}
    source_edges = interned.edge_pairs
    source_configs = interned.node_configs
    for target in _relaxation_candidates(problem, interned):
        if target.is_empty():
            continue
        signature = target.signature()
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        # Mask-level soundness gate: a generator bug must surface as a
        # skipped move at worst, never as an invalid certificate in a chain.
        if not check_index_image(
            target.image,
            source_edges,
            source_configs,
            target.edge_pairs,
            set(target.node_configs),
        ):
            continue
        move = _materialize(problem, interned, target)
        if not expensive:
            key = canonical_hash(move.target)
            if key in seen_hashes:
                continue
            try:
                certify_relaxation(move.source, move.target, move.mapping)
            except ValueError:
                continue
            seen_hashes.add(key)
        moves.append(move)
        if len(moves) >= max_moves:
            break
    return moves


def generate_hardenings(problem: Problem, max_moves: int = 8) -> list[RelaxationMove]:
    """Certified Section 4.5 hardening moves of ``problem``.

    Each returned move's target is a constraint restriction of ``problem``
    (at least as hard; its solutions solve ``problem`` verbatim), certified
    by :func:`~repro.core.relaxation.certify_hardening`.  Degenerate targets
    (nothing left to output) and duplicates are filtered.  These moves are
    for upper-bound chasing and are never offered to the lower-bound search.
    """
    if max_moves < 1:
        return []
    interned = intern(problem)
    moves: list[RelaxationMove] = []
    seen_signatures = {_source_signature(interned)}
    for target in _hardening_candidates(problem, interned):
        if target.is_empty():
            continue
        signature = target.signature()
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        move = _materialize(problem, interned, target)
        try:
            certify_hardening(move.source, move.target)
        except ValueError:
            continue
        moves.append(move)
        if len(moves) >= max_moves:
            break
    return moves
