"""Seeded inputs and the output gate's structural digest.

Everything here is the benchmark's own code: the renamings and the random
problem pool come from :class:`random.Random` instances seeded by the
benchmark, and the digest is computed without :mod:`repro.core.canonical`,
which is one of the layers under measurement.
"""

from __future__ import annotations

import hashlib
import random
import string
from collections import Counter
from itertools import chain

from repro.core.problem import Problem
from repro.problems.catalog import get_problem

#: The eleven single-step derivations of ``derive-cold`` (and the cache fill
#: of ``twins-warm``).  5-coloring[2] is left out: 26 s and 3.2 GB RSS per
#: derivation on the seed code.  The count is odd on purpose: every pass
#: runs each case once, so with an even count the median latency fell
#: between two cases and read the slowest run of one and the fastest run of
#: the other, which spread far more than either case's own median.
DERIVE_CASES: tuple[tuple[str, int], ...] = (
    ("sinkless-orientation", 3),
    ("sinkless-coloring", 5),
    ("3-coloring", 3),
    ("mis", 3),
    ("maximal-matching", 3),
    ("weak-2-coloring", 3),
    ("weak-2-coloring", 4),
    ("superweak-2-coloring", 3),
    ("4-coloring", 2),
    ("weak-3-coloring", 2),
    ("superweak-3-coloring", 2),
)

#: Derived problems whose canonical key survives renaming (at most 19
#: labels).  The 164-label 4-coloring and the 976-label weak-3/superweak-3
#: Pi_1 fall back to name-keyed ``exact:`` keys, so their renamed twins would
#: miss both caches; they are not part of the read path ``twins-warm`` times.
TWIN_DERIVED_CASES: tuple[tuple[str, int], ...] = tuple(
    case for case in DERIVE_CASES
    if case not in {("4-coloring", 2), ("weak-3-coloring", 2), ("superweak-3-coloring", 2)}
)

#: ``classify-mix`` catalog cases: (name, delta, max_steps).
CLASSIFY_CASES: tuple[tuple[str, int, int], ...] = (
    ("indegree-handshake", 2, 3),
    ("sinkless-orientation", 3, 4),
    ("mis", 3, 2),
    ("3-coloring", 2, 2),
    ("weak-2-coloring", 3, 2),
)

#: The pool of small random problems ``classify-mix`` adds to every pass.
#: It is drawn once from a fixed seed; the workload seed orders and renames
#: it.  A fresh draw per workload seed made the latency percentiles spread
#: by 30-50% between seeds (classify cost is heavy-tailed in the problem),
#: far beyond any usable regression bound.  The pool is large and delta-2
#: only so that the run's p90 lands where pool latencies are dense; with
#: delta 3 mixed in, the tail around it is sparse and p90 spread by 30%.
#: Only two passes fit in a run, so the pool also sets how many latency
#: samples the percentiles rest on: with 150 problems p90 still spread by
#: 17-19% of its median over ten runs.
POOL_SEED = 12345
POOL_SIZE = 300
POOL_MAX_STEPS = 2


def case_id(name: str, delta: int) -> str:
    return f"{name}[{delta}]"


def catalog_problem(name: str, delta: int) -> Problem:
    """A fresh instance (no interned or cached state from earlier calls)."""
    return get_problem(name, delta)


def random_label_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct fresh label names, e.g. ``"qzk"``."""
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choices(string.ascii_lowercase, k=3)))
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


def renamed(problem: Problem, rng: random.Random) -> tuple[Problem, dict[str, str]]:
    """A label-renamed twin of ``problem`` and the renaming used."""
    labels = sorted(problem.labels)
    mapping = dict(zip(labels, random_label_names(rng, len(labels))))
    return problem.renamed(mapping, name=problem.name), mapping


def random_problem(rng: random.Random, index: int) -> Problem:
    """A small random LCL: delta 2, two or three labels."""
    delta = 2
    alphabet = [f"x{i}" for i in range(rng.randint(2, 3))]
    edges = {tuple(sorted(rng.choices(alphabet, k=2))) for _ in range(rng.randint(2, 5))}
    nodes = {
        tuple(sorted(rng.choices(alphabet, k=delta))) for _ in range(rng.randint(2, 5))
    }
    return Problem.make(
        name=f"pool-{index}",
        delta=delta,
        edge_configs=edges,
        node_configs=nodes,
        labels=alphabet,
    )


def random_pool() -> list[Problem]:
    rng = random.Random(POOL_SEED)
    return [random_problem(rng, index) for index in range(POOL_SIZE)]


def structural_digest(problem: Problem) -> str:
    """A label-name-free fingerprint of a problem's structure.

    Each label is coloured by its edge degree and by the multiplicities it
    has in the node configurations; the digest hashes the sorted colour
    multiset and the sorted multiset of node configurations written in
    colours.  Isomorphic problems get equal digests, so a derivation from
    renamed inputs can be checked against one committed value.
    """
    # Both ends of every pair, counted in C: a Python loop over the 373k
    # pairs of a weak-3 Pi_1 took as long as deriving it.
    degree: Counter[str] = Counter(chain.from_iterable(problem.edge_constraint))
    multiplicities: dict[str, list[int]] = {label: [] for label in problem.labels}
    for config in problem.node_constraint:
        for label, count in Counter(config).items():
            multiplicities[label].append(count)
    colour = {
        label: (degree[label], tuple(sorted(multiplicities[label])))
        for label in problem.labels
    }
    nodes = sorted(
        tuple(sorted(colour[label] for label in config))
        for config in problem.node_constraint
    )
    parts = (
        problem.delta,
        len(problem.edge_constraint),
        sorted(colour.values()),
        nodes,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
