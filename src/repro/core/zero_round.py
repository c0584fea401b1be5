"""Decision procedures for 0-round solvability in the port numbering model.

The endpoint of every round-elimination argument (Section 2.1) is the
question whether some derived problem ``Pi_t`` can be solved in zero rounds.
In the port numbering model a 0-round algorithm is a single function from a
node's initial knowledge to a tuple of output labels, one per port; the
adversary controls the port numbering and (within the graph class) the
inputs.  Two input settings matter for the paper:

* **No symmetry-breaking input.**  Every node sees the same nothing, so all
  nodes answer the same configuration ``C`` (up to port permutation), and any
  element of ``C`` at one endpoint can face any element of ``C`` at the other.
  Solvability therefore means: some allowed node configuration is
  *self-compatible* -- every pair of its labels is an allowed edge
  configuration.

* **Input edge orientations** (the symmetry breaking Theorem 2 requires).  A
  node's 0-round view is the orientation pattern of its ports; on a
  delta-regular class the adversary realises every in-degree ``s`` in
  ``{0..delta}``.  A 0-round algorithm picks, for each ``s``, a split of an
  allowed node configuration into labels for in-ports and labels for
  out-ports; on an edge, an out-label of one endpoint faces an in-label of
  the other, and both the endpoints' in-degrees are arbitrary.  Solvability
  means: splits ``(I_s, O_s)`` can be chosen so that every out-label from any
  chosen split is edge-compatible with every in-label from any chosen split.

Both procedures run on the bitmask kernel (:mod:`repro.core.alphabet`):
split signatures and the DFS unions are label masks, and the all-pairs
edge-compatibility conditions collapse to polar-mask subset tests (a set of
out-labels is compatible with a set of in-labels iff the in-mask is a subset
of the AND of the out-labels' adjacency masks).  Witnesses still carry the
original name tuples, and the search visits splits in the same deterministic
order as the legacy string path, so the witness found is identical.

The polar queries here stay scalar by design, unlike the full step's
completion matching and materialisation (:mod:`repro.core.vectorkernel`):
each DFS step asks for one memoised ``polar_mask`` of a running union, a
data-dependent chain with no candidate batch to evaluate.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from dataclasses import dataclass
from pathlib import Path

from repro.core.alphabet import InternedProblem, intern, iter_bits
from repro.core.canonical import canonical_hash
from repro.core.galois import Compatibility
from repro.core.problem import NodeConfig, Problem
from repro.utils.jsonio import JsonStore
from repro.utils.multiset import multiset_difference, submultisets_of_size


@dataclass(frozen=True)
class ZeroRoundWitness:
    """Evidence that a problem is 0-round solvable.

    For the no-input setting, ``splits`` holds the single self-compatible
    configuration under key ``-1``.  For the orientation setting, ``splits``
    maps each in-degree ``s`` to the chosen ``(in_labels, out_labels)`` pair.
    """

    problem_name: str
    setting: str
    splits: dict[int, tuple[NodeConfig, NodeConfig]]

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form; split keys become strings, configurations lists."""
        return {
            "problem_name": self.problem_name,
            "setting": self.setting,
            "splits": {
                str(key): [list(ins), list(outs)]
                for key, (ins, outs) in sorted(self.splits.items())
            },
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ZeroRoundWitness":
        return ZeroRoundWitness(
            problem_name=data["problem_name"],
            setting=data["setting"],
            splits={
                int(key): (tuple(ins), tuple(outs))
                for key, (ins, outs) in data["splits"].items()
            },
        )

    def describe(self) -> str:
        lines = [f"0-round witness for {self.problem_name} ({self.setting})"]
        for key in sorted(self.splits):
            ins, outs = self.splits[key]
            if key == -1:
                lines.append(f"  configuration: {' '.join(outs)}")
            else:
                lines.append(
                    f"  in-degree {key}: in={' '.join(ins) or '-'} "
                    f"out={' '.join(outs) or '-'}"
                )
        return "\n".join(lines)


def zero_round_no_input(problem: Problem) -> ZeroRoundWitness | None:
    """0-round solvability with no symmetry-breaking input.

    Returns a witness configuration or None.  The condition is the classical
    round-elimination triviality test: some ``C`` in ``h`` with
    ``{x, y} in g`` for all ``x, y`` drawn from ``C``'s support -- on masks,
    the support must be a subset of its own polar.
    """
    interned = intern(problem)
    comp = Compatibility(problem)
    for index, config in enumerate(interned.node_configs):
        support = interned.config_supports[index]
        if support & ~comp.polar_mask(support) == 0:
            return ZeroRoundWitness(
                problem_name=problem.name,
                setting="no-input",
                splits={-1: ((), interned.alphabet.config(config))},
            )
    return None


def _orientation_splits(
    interned: InternedProblem, in_degree: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Distinct split *signatures*: one representative per (in-set, out-set).

    The compatibility search only depends on which label sets face each
    other, not on multiplicities, so splits are deduplicated by the pair of
    *support masks* -- a large reduction on derived problems with many
    configurations.  Entries are ``(in_config, out_config, in_mask,
    out_mask)`` with the configurations as index tuples; iteration order
    matches the legacy string path (configs in sorted order, sub-multisets in
    combination order), so the chosen representatives -- and ultimately the
    witness -- are identical.
    """
    by_signature: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], int, int]] = {}
    for config in interned.node_configs:
        for in_part in submultisets_of_size(config, in_degree):
            out_part = multiset_difference(config, in_part)
            in_mask = 0
            for label in in_part:
                in_mask |= 1 << label
            out_mask = 0
            for label in out_part:
                out_mask |= 1 << label
            by_signature.setdefault(
                (in_mask, out_mask), (in_part, out_part, in_mask, out_mask)
            )
    return sorted(by_signature.values())


def zero_round_with_orientations(problem: Problem) -> ZeroRoundWitness | None:
    """0-round solvability given input edge orientations on a regular class.

    Performs a depth-first search over the choice of one split per in-degree,
    maintaining the union masks of chosen in-labels and out-labels plus their
    running polar masks, pruning as soon as some out-label would face some
    in-label not allowed by ``g``, and memoising failed
    ``(level, in-union, out-union)`` states.
    """
    interned = intern(problem)
    comp = Compatibility(problem)
    delta = problem.delta
    per_degree = [_orientation_splits(interned, s) for s in range(delta + 1)]
    if any(not options for options in per_degree):
        return None
    # Search the most-constrained levels first (fewest options).
    level_order = sorted(range(delta + 1), key=lambda s: len(per_degree[s]))

    chosen: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    failed: set[tuple[int, int, int]] = set()

    def search(index: int, in_union: int, out_union: int, in_allowed: int) -> bool:
        # in_allowed = polar(out_union): the labels every chosen out-label
        # accepts across an edge.  (The converse direction needs no separate
        # mask: "new out-labels accept all in-labels" is the same all-pairs
        # condition as "all in-labels lie in polar(new out-labels)".)
        if index == len(level_order):
            return True
        state = (index, in_union, out_union)
        if state in failed:
            return False
        s = level_order[index]
        for in_part, out_part, in_mask, out_mask in per_degree[s]:
            new_in = in_mask & ~in_union
            new_out = out_mask & ~out_union
            # Fresh out-labels must accept every in-label old and new ...
            new_out_polar = comp.polar_mask(new_out)
            if (in_union | new_in) & ~new_out_polar:
                continue
            # ... and fresh in-labels must be accepted by every old out-label.
            if new_in & ~in_allowed:
                continue
            chosen[s] = (in_part, out_part)
            if search(
                index + 1,
                in_union | new_in,
                out_union | new_out,
                in_allowed & new_out_polar,
            ):
                return True
            del chosen[s]
        failed.add(state)
        return False

    if search(0, 0, 0, interned.alphabet.full_mask):
        to_names = interned.alphabet.config
        return ZeroRoundWitness(
            problem_name=problem.name,
            setting="edge-orientations",
            splits={
                s: (to_names(in_part), to_names(out_part))
                for s, (in_part, out_part) in chosen.items()
            },
        )
    return None


def _orientations_solvable_delta2(problem: Problem) -> bool:
    """Boolean-only fast path for the orientation setting at ``delta == 2``.

    With two ports there are exactly three in-degree levels, so a 0-round
    algorithm is one out-configuration ``C0`` (in-degree 0), one
    in-configuration ``C2`` (in-degree 2), and one ordered split ``(x, y)``
    of some configuration (in-degree 1, ``x`` in / ``y`` out), subject to
    the all-pairs condition ``IN x OUT subset of g`` for ``IN =
    supp(C2) | {x}``, ``OUT = supp(C0) | {y}``.  That condition factors
    completely through polar masks:

    * ``supp(C2) <= polar(supp(C0))``  (the pair screen);
    * ``supp(C2) <= adj(y)`` and ``x in adj(y)``  (everything faces ``y``);
    * ``x in polar(supp(C0))``  (``x`` faces all of ``C0``) -- unless ``y``
      itself lies in ``supp(C0)``, in which case ``adj(y)`` constraints are
      already part of ``polar(supp(C0))`` and the split check collapses to
      ``x in polar(supp(C0))`` alone.

    The scan over splits depends on the pair only through ``(supp(C2),
    polar(supp(C0)))``, which repeats massively (derived problems share
    polars), so it is memoised on that key: the whole decision is a few
    hundred thousand mask operations where the general DFS spends a minute
    on 1000-label problems.  The general DFS remains the witness-producing
    path and the reference the differential suite compares against.
    """
    interned = intern(problem)
    configs = interned.node_configs
    if not configs or not any(interned.adjacency):
        return False
    comp = Compatibility(problem)
    adjacency = interned.adjacency
    supports = sorted(set(interned.config_supports))
    polar = {support: comp.polar_mask(support) for support in supports}

    # Ordered split options for in-degree 1: out label y -> mask of in labels
    # x with {x, y} an allowed configuration; x must additionally face y.
    options_by_out: dict[int, int] = {}
    for a, b in configs:
        options_by_out[b] = options_by_out.get(b, 0) | (1 << a)
        options_by_out[a] = options_by_out.get(a, 0) | (1 << b)
    facing = {y: mask & adjacency[y] for y, mask in options_by_out.items()}
    # Out labels whose adjacency accepts a whole in-support, per support.
    accepts = {
        support: [y for y in sorted(facing) if support & ~adjacency[y] == 0]
        for support in supports
    }

    split_memo: dict[tuple[int, int], bool] = {}
    for out_support in supports:
        p0 = polar[out_support]
        for in_support in supports:
            if in_support & ~p0:
                continue
            # y already among C0's labels: adj(y) is folded into p0, so any
            # split partner x in p0 works.
            found = False
            for y in iter_bits(out_support):
                if options_by_out.get(y, 0) & p0:
                    found = True
                    break
            if not found:
                key = (in_support, p0)
                cached = split_memo.get(key)
                if cached is None:
                    cached = any(facing[y] & p0 for y in accepts[in_support])
                    split_memo[key] = cached
                found = cached
            if found:
                return True
    return False


def is_zero_round_solvable(problem: Problem, orientations: bool = True) -> bool:
    """Convenience wrapper returning a bare boolean.

    With ``orientations=True`` (the setting of Theorem 2 and all the paper's
    lower bounds) the orientation-input procedure is used; note a problem
    solvable with no input is a fortiori solvable with orientations.  At
    ``delta == 2`` the boolean is decided by the closed-form fast path
    (:func:`_orientations_solvable_delta2`); witnesses always come from the
    general DFS.
    """
    if orientations:
        if problem.delta == 2:
            return _orientations_solvable_delta2(problem)
        return zero_round_with_orientations(problem) is not None
    return zero_round_no_input(problem) is not None


def check_zero_round_witness(
    problem: Problem, witness: ZeroRoundWitness, orientations: bool = True
) -> list[str]:
    """Independently validate a recorded 0-round witness, field by field.

    Returns the list of failures (empty iff the witness proves ``problem``
    0-round solvable in the requested input setting).  Every serialized
    field is load-bearing: the recorded problem name must match, the setting
    must match the claim being verified, the split keys must cover exactly
    the in-degrees the adversary realises, each split must have the right
    arity and be an allowed node configuration, and the all-pairs
    edge-compatibility condition is re-decided on the bitmask kernel.  This
    is how :meth:`~repro.core.certificate.UpperBoundCertificate.verify`
    re-checks a chain's terminal without trusting the recorded witness.
    """
    failures: list[str] = []
    if witness.problem_name != problem.name:
        failures.append(
            f"witness names {witness.problem_name!r}, not {problem.name!r}"
        )
    expected_setting = "edge-orientations" if orientations else "no-input"
    if witness.setting != expected_setting:
        failures.append(
            f"witness setting {witness.setting!r} does not match the "
            f"{expected_setting!r} claim"
        )
        return failures
    interned = intern(problem)
    index = interned.alphabet.index
    comp = Compatibility(problem)

    def resolve(config: NodeConfig) -> tuple[int, ...] | None:
        """Sorted label indices of a recorded configuration, None off-alphabet."""
        positions = []
        for label in config:
            position = index.get(label)
            if position is None:
                return None
            positions.append(position)
        return tuple(sorted(positions))

    def mask_of(indices: tuple[int, ...]) -> int:
        mask = 0
        for position in indices:
            mask |= 1 << position
        return mask

    if not orientations:
        if set(witness.splits) != {-1}:
            failures.append(
                f"no-input witness must hold exactly the key -1, "
                f"got {sorted(witness.splits)}"
            )
            return failures
        ins, outs = witness.splits[-1]
        if ins:
            failures.append("no-input witness must leave the in-part empty")
        if len(outs) != problem.delta:
            failures.append(
                f"witness configuration has {len(outs)} labels, "
                f"delta is {problem.delta}"
            )
            return failures
        indices = resolve(outs)
        if indices is None:
            failures.append("witness configuration uses labels outside the alphabet")
            return failures
        if indices not in interned.node_config_set:
            failures.append(
                "witness configuration is not an allowed node configuration"
            )
        support = mask_of(indices)
        if support & ~comp.polar_mask(support):
            failures.append(
                "witness configuration is not self-compatible across an edge"
            )
        return failures

    delta = problem.delta
    if set(witness.splits) != set(range(delta + 1)):
        failures.append(
            f"orientation witness must choose one split per in-degree "
            f"0..{delta}, got {sorted(witness.splits)}"
        )
        return failures
    in_union = 0
    out_union = 0
    for s in range(delta + 1):
        ins, outs = witness.splits[s]
        if len(ins) != s or len(outs) != delta - s:
            failures.append(
                f"in-degree {s}: split arity is ({len(ins)}, {len(outs)}), "
                f"expected ({s}, {delta - s})"
            )
            return failures
        indices = resolve(ins + outs)
        if indices is None:
            failures.append(
                f"in-degree {s}: split uses labels outside the alphabet"
            )
            return failures
        if indices not in interned.node_config_set:
            failures.append(
                f"in-degree {s}: split is not an allowed node configuration"
            )
        in_indices = resolve(ins)
        out_indices = resolve(outs)
        assert in_indices is not None and out_indices is not None
        in_union |= mask_of(in_indices)
        out_union |= mask_of(out_indices)
    # The 0-round condition itself: on an edge, any chosen out-label faces
    # any chosen in-label (both endpoints' in-degrees are adversarial), so
    # the in-union must lie in the polar of the out-union.
    if in_union & ~comp.polar_mask(out_union):
        failures.append(
            "some chosen in-label is not edge-compatible with every chosen "
            "out-label"
        )
    return failures


# -- cross-branch memoisation --------------------------------------------------


class ZeroRoundMemo:
    """A cross-branch memo table of 0-round solvability verdicts.

    The lower-bound search re-decides 0-round solvability for every
    candidate of every beam state, and different branches constantly reach
    the same derived problems up to label renaming; on 1000-label derived
    problems the orientation-split DFS dominates search profiles.  This
    table memoises the bare verdict, keyed on the *canonical problem hash*
    (:func:`repro.core.canonical.canonical_hash`) plus the input setting, so
    renamed twins hit and the verdict is shared across branches, searches,
    and -- through the engine, which owns one instance next to its speedup
    cache -- caller threads.

    Storage is the shared :class:`repro.utils.jsonio.JsonStore`
    (:attr:`entries`), the same one under the speedup cache: thread-safe, an
    LRU over ``maxsize`` entries (verdicts are single booleans, so no weight
    bound), and with a ``directory`` one tiny JSON file per verdict that
    in-memory misses consult before recomputing.  The memo trusts a file
    only when it holds a real bool filed under the requested key, so
    corrupt, truncated, or type-mangled entries behave exactly like absent
    ones and get overwritten by the recomputation's store.
    """

    def __init__(self, maxsize: int = 4096, directory: str | Path | None = None):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.entries: JsonStore[bool] = JsonStore(
            "solvable", bool, self._decode, maxsize=maxsize, directory=directory
        )
        self._lock = self.entries.lock
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(problem: Problem, orientations: bool) -> str:
        """The memo key: input setting plus canonical problem hash."""
        return ("orientations:" if orientations else "no-input:") + canonical_hash(problem)

    @staticmethod
    def _decode(key: str, envelope: dict[str, Any]) -> bool | None:
        """A genuine bool verdict filed under ``key``, else None (a miss).

        A mangled or collided file must degrade to a miss, never to a wrong
        verdict for the requesting problem.
        """
        solvable = envelope.get("solvable")
        if not isinstance(solvable, bool) or envelope.get("key") != key:
            return None
        return solvable

    def lookup(self, key: str) -> bool | None:
        """The stored verdict, or None on a miss (counted)."""
        verdict = self.entries.get(key)
        with self._lock:
            if verdict is None:
                self.misses += 1
            else:
                self.hits += 1
        return verdict

    def store(self, key: str, solvable: bool) -> None:
        self.entries.put(key, bool(solvable))
        self.entries.persist(key, bool(solvable))

    def merge(self, key: str, solvable: bool) -> None:
        """Adopt a verdict decided elsewhere (a worker process).

        No hit/miss accounting and no disk write: with a directory
        configured the worker shares it and has already persisted the
        verdict.
        """
        self.entries.put(key, bool(solvable))

    def verdict(self, problem: Problem, orientations: bool = True) -> tuple[bool, bool]:
        """``(solvable, memo_hit)``: memoised :func:`is_zero_round_solvable`.

        ``memo_hit`` lets a search count its own hits exactly, which the
        memo's global counter cannot under concurrent workloads.
        """
        key = self.key_for(problem, orientations)
        solvable = self.lookup(key)
        if solvable is not None:
            return solvable, True
        solvable = is_zero_round_solvable(problem, orientations=orientations)
        self.store(key, solvable)
        return solvable, False

    def check(self, problem: Problem, orientations: bool = True) -> bool:
        """Memoised :func:`is_zero_round_solvable` (the verdict alone)."""
        return self.verdict(problem, orientations)[0]

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self.entries),
                "store_failures": self.entries.store_failures,
            }
