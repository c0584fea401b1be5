"""Membership in ``h_1(Delta)`` for superweak coloring, at astronomically large Delta.

Section 5.1 characterises the node constraint of the derived problem
``Pi'_1`` of superweak k-coloring: a multiset ``{W_1, ..., W_Delta}`` of
*sets of trit sequences* belongs to ``h_1(Delta)`` iff

* **Property A**: for every choice ``w_i in W_i`` there is a position ``j``
  where strictly more chosen sequences have a 2 than a 0, and at most ``k``
  have a 0; and
* **Property B**: the multiset is maximal with Property A (adding any trit
  sequence to any single ``W_i`` breaks A).

Lemma 1 needs these tested at ``Delta >= 2^(4^k) + 1`` -- far beyond explicit
enumeration.  The key observation making this tractable is that both
properties only depend on the *multiplicity* of each distinct set, so a
configuration is stored condensed as ``{set: multiplicity}``, and the
adversarial choice hidden in Property A is a small integer program over
per-set choice counts: for each of the ``2^k`` ways to assign every position
a failure mode (mode "zeros >= twos" or mode "zeros > k"), feasibility is
decided exactly with scipy's MILP solver (HiGHS).  A brute-force checker over
explicit choices cross-validates the oracle at small Delta.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.superweak.tritseq import TritSeq, all_tritseqs

TritSet = frozenset


@dataclass(frozen=True)
class CondensedConfig:
    """A node configuration stored as (set of trit sequences, multiplicity) pairs."""

    counts: tuple[tuple[tuple[TritSeq, ...], int], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[frozenset[TritSeq], int]) -> "CondensedConfig":
        items = []
        for key, value in mapping.items():
            if value < 0:
                raise ValueError("multiplicities must be non-negative")
            if value > 0:
                items.append((tuple(sorted(key)), value))
        return CondensedConfig(counts=tuple(sorted(items)))

    @staticmethod
    def from_sequence(sets: Sequence[Iterable[TritSeq]]) -> "CondensedConfig":
        tally: dict[tuple[TritSeq, ...], int] = {}
        for entry in sets:
            key = tuple(sorted(entry))
            tally[key] = tally.get(key, 0) + 1
        return CondensedConfig(counts=tuple(sorted(tally.items())))

    @property
    def delta(self) -> int:
        return sum(multiplicity for _, multiplicity in self.counts)

    def as_mapping(self) -> dict[frozenset[TritSeq], int]:
        return {frozenset(key): value for key, value in self.counts}

    def replace_one(
        self, old: frozenset[TritSeq], new: frozenset[TritSeq]
    ) -> "CondensedConfig":
        """Replace a single copy of ``old`` by ``new``."""
        mapping = self.as_mapping()
        if mapping.get(old, 0) < 1:
            raise ValueError(f"{sorted(old)} does not occur in the configuration")
        mapping[old] -= 1
        mapping[new] = mapping.get(new, 0) + 1
        return CondensedConfig.from_mapping(mapping)


# -- Property A -----------------------------------------------------------


def _choice_variables(config: CondensedConfig) -> list[tuple[int, TritSeq]]:
    """One variable per (type index, member sequence) pair."""
    variables = []
    for type_index, (members, _multiplicity) in enumerate(config.counts):
        for seq in members:
            variables.append((type_index, seq))
    return variables


def _mode_feasible_milp(
    config: CondensedConfig, k: int, modes: tuple[str, ...]
) -> bool:
    """Is there an integral adversarial choice failing every position per ``modes``?

    ``modes[j]`` is ``'balance'`` (zeros >= twos at position j) or ``'many'``
    (zeros >= k + 1 at position j).
    """
    from scipy.optimize import LinearConstraint, milp

    variables = _choice_variables(config)
    if not variables:
        return False
    index_of = {var: i for i, var in enumerate(variables)}
    n = len(variables)

    constraints = []
    # Each type's choices sum to its multiplicity.
    for type_index, (members, multiplicity) in enumerate(config.counts):
        row = np.zeros(n)
        for seq in members:
            row[index_of[(type_index, seq)]] = 1.0
        constraints.append(
            LinearConstraint(row, lb=multiplicity, ub=multiplicity)
        )
    # Per-position failure constraints.
    for position, mode in enumerate(modes):
        zero_row = np.zeros(n)
        two_row = np.zeros(n)
        for var_index, (_type_index, seq) in enumerate(variables):
            if seq[position] == "0":
                zero_row[var_index] = 1.0
            elif seq[position] == "2":
                two_row[var_index] = 1.0
        if mode == "balance":
            constraints.append(
                LinearConstraint(zero_row - two_row, lb=0, ub=np.inf)
            )
        elif mode == "many":
            constraints.append(LinearConstraint(zero_row, lb=k + 1, ub=np.inf))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mode {mode!r}")

    result = milp(
        c=np.zeros(n),
        constraints=constraints,
        integrality=np.ones(n),
        bounds=None,
    )
    return result.status == 0  # optimal <=> feasible for a zero objective


def find_violating_choice_milp(config: CondensedConfig, k: int) -> bool:
    """True iff an adversarial choice defeating *every* position exists."""
    positions = len(config.counts[0][0][0]) if config.counts else k
    for modes in product(("balance", "many"), repeat=positions):
        if _mode_feasible_milp(config, k, modes):
            return True
    return False


def property_a_holds(config: CondensedConfig, k: int) -> bool:
    """Property A of Section 5.1 (the universal half of h_1 membership)."""
    if not config.counts:
        return False
    return not find_violating_choice_milp(config, k)


def property_a_bruteforce(config: CondensedConfig, k: int) -> bool:
    """Explicit enumeration over all choices -- for cross-validating the oracle.

    Only usable when the total number of choice combinations is small; raises
    OverflowError otherwise so tests fail loudly instead of hanging.
    """
    from repro.superweak.tritseq import node_choice_is_good

    slots: list[tuple[TritSeq, ...]] = []
    for members, multiplicity in config.counts:
        slots.extend([members] * multiplicity)
    total = 1
    for slot in slots:
        total *= len(slot)
        if total > 2_000_000:
            raise OverflowError("too many choice combinations for brute force")
    return all(
        node_choice_is_good(list(choice), k) for choice in product(*slots)
    )


# -- Property B -----------------------------------------------------------


def is_maximal(config: CondensedConfig, k: int) -> bool:
    """Property B: adding any trit sequence to any single set breaks Property A."""
    if not property_a_holds(config, k):
        return False
    length = len(config.counts[0][0][0])
    alphabet = all_tritseqs(length)
    for members, _multiplicity in config.counts:
        member_set = frozenset(members)
        for seq in alphabet:
            if seq in member_set:
                continue
            grown = config.replace_one(member_set, member_set | {seq})
            if property_a_holds(grown, k):
                return False
    return True


def is_h1_member(config: CondensedConfig, k: int) -> bool:
    """Full membership in ``h_1(Delta)``: Property A and Property B."""
    return property_a_holds(config, k) and is_maximal(config, k)
