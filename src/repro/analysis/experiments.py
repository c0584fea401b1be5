"""Experiment drivers: one function per reproduced claim (E1..E13).

Each driver re-derives a checkable statement of the paper with the library's
machinery and returns a structured result object; the benchmark harnesses in
``benchmarks/`` time them, and EXPERIMENTS.md records their outputs.  See
DESIGN.md Section 5 for the experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator
from itertools import combinations, product
from math import comb

from repro.core.canonical import are_isomorphic, find_isomorphism
from repro.core.problem import Problem
from repro.core.speedup import half_step
from repro.core.zero_round import zero_round_no_input, zero_round_with_orientations
from repro.engine import get_default_engine
from repro.problems.coloring import coloring
from repro.problems.sinkless import sinkless_coloring, sinkless_orientation
from repro.problems.superweak import superweak, weak2_to_superweak2_map
from repro.problems.weak_coloring import weak_coloring_pointer


# -- E1: sinkless coloring / sinkless orientation (Section 4.4) -------------


@dataclass(frozen=True)
class SinklessResult:
    delta: int
    half_is_sinkless_orientation: bool
    full_is_sinkless_coloring: bool
    zero_round_with_orientations: bool
    zero_round_no_input: bool

    @property
    def reproduces_paper(self) -> bool:
        return (
            self.half_is_sinkless_orientation
            and self.full_is_sinkless_coloring
            and not self.zero_round_with_orientations
            and not self.zero_round_no_input
        )


def run_sinkless(delta: int) -> SinklessResult:
    """E1: the speedup of sinkless coloring is a fixed point through sinkless
    orientation, and never 0-round solvable -- the Omega(log n) bound."""
    sc = sinkless_coloring(delta)
    so = sinkless_orientation(delta)
    half = half_step(sc).problem.compressed()
    full = get_default_engine().speedup(sc).full.compressed()
    return SinklessResult(
        delta=delta,
        half_is_sinkless_orientation=are_isomorphic(half, so.compressed()),
        full_is_sinkless_coloring=are_isomorphic(full, sc.compressed()),
        zero_round_with_orientations=zero_round_with_orientations(sc) is not None,
        zero_round_no_input=zero_round_no_input(sc) is not None,
    )


# -- E2: color reduction on rings (Section 4.5) ------------------------------


def _complementary_pairs(k: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The ``C(k, k/2)/2`` complementary pairs of ``k/2``-subsets of ``{1..k}``."""
    if k % 2 != 0 or k < 4:
        raise ValueError("the construction needs even k >= 4")
    ground = frozenset(range(1, k + 1))
    pairs = []
    seen: set[frozenset[int]] = set()
    for half in (frozenset(c) for c in combinations(sorted(ground), k // 2)):
        if half in seen:
            continue
        complement_set = ground - half
        pairs.append((half, complement_set))
        seen.add(half)
        seen.add(complement_set)
    return pairs


def paper_hardening_labels(k: int) -> list[frozenset[frozenset[int]]]:
    """The Section 4.5 construction of ``f*_1``: the labels of ``Pi*_1``.

    Each label is a set ``Y`` of ``k/2``-element subsets of ``{1..k}`` such
    that for every ``k/2``-subset ``Z``, exactly one of ``Z`` and its
    complement lies in ``Y``.  Their number is ``2^(C(k, k/2) / 2)`` --
    materialised only while that count is small (k <= 6); for larger ``k``
    use :func:`sample_hardening_labels`.
    """
    pairs = _complementary_pairs(k)
    if 2 ** len(pairs) > 4096:
        raise OverflowError(
            f"2^{len(pairs)} labels is too many to materialise; sample instead"
        )
    labels = []
    for selection in product((0, 1), repeat=len(pairs)):
        labels.append(
            frozenset(pair[choice] for pair, choice in zip(pairs, selection))
        )
    return labels


def sample_hardening_labels(k: int, count: int) -> list[frozenset[frozenset[int]]]:
    """A deterministic sample of ``f*_1`` labels for large ``k``.

    Selections are derived from a seeded generator, so experiments are
    reproducible without materialising the doubly exponential label set.
    """
    import random

    pairs = _complementary_pairs(k)
    rng = random.Random(20190226)  # the paper's arXiv date
    samples = []
    chosen: set[tuple[int, ...]] = set()
    while len(samples) < count:
        selection = tuple(rng.randint(0, 1) for _ in pairs)
        if selection in chosen:
            continue
        chosen.add(selection)
        samples.append(
            frozenset(pair[choice] for pair, choice in zip(pairs, selection))
        )
    return samples


@dataclass(frozen=True)
class ColorReductionResult:
    k: int
    k_prime: int
    expected_k_prime: int
    pairwise_edge_property: bool
    diagonal_node_property: bool
    doubly_exponential: bool
    exhaustive: bool

    @property
    def reproduces_paper(self) -> bool:
        return (
            self.k_prime == self.expected_k_prime
            and self.pairwise_edge_property
            and self.diagonal_node_property
        )


def run_color_reduction(k: int, sample_size: int = 64) -> ColorReductionResult:
    """E2: the ``Pi*_1`` hardening of Section 4.5 is k'-coloring.

    Verifies the label count ``2^(C(k, k/2)/2)``, the two structural
    properties the paper proves (any two distinct labels contain a
    complementary pair -- so ``{Y, Z}`` is in ``g_1``; the members of a single
    label pairwise intersect -- so ``{Y, Y}`` is in ``h_1``), and the
    doubly-exponential growth ``k' >= 2^(2^(k/2))`` for ``k >= 6``.

    For ``k <= 6`` the label set is materialised and checked exhaustively;
    beyond that it is doubly exponential (2^35 already at k = 8), so the
    count is computed arithmetically and the properties are verified on a
    deterministic sample of ``sample_size`` labels.
    """
    expected = 2 ** (comb(k, k // 2) // 2)
    try:
        labels = paper_hardening_labels(k)
        exhaustive = True
        k_prime = len(labels)
    except OverflowError:
        labels = sample_hardening_labels(k, sample_size)
        exhaustive = False
        k_prime = expected  # by construction: one free bit per pair
    ground = frozenset(range(1, k + 1))

    def complementary_pair_exists(
        first: frozenset[frozenset[int]], second: frozenset[frozenset[int]]
    ) -> bool:
        return any(ground - y in second for y in first)

    pairwise = all(
        complementary_pair_exists(a, b)
        for a, b in combinations(labels, 2)
    )
    diagonal = all(
        bool(y & z)
        for label in labels
        for y in label
        for z in label
    )
    return ColorReductionResult(
        k=k,
        k_prime=k_prime,
        expected_k_prime=expected,
        pairwise_edge_property=pairwise,
        diagonal_node_property=diagonal,
        doubly_exponential=(k < 6) or (k_prime >= 2 ** (2 ** (k // 2))),
        exhaustive=exhaustive,
    )


def embedded_coloring_size(derived: Problem) -> int:
    """Largest ``k'`` such that k'-coloring embeds in a derived ring problem.

    A k'-coloring sub-problem is a set of labels, each with its diagonal
    ``(l, l)`` in the node constraint, pairwise connected in the edge
    constraint.  This is a maximum clique over the diagonal labels -- the
    engine-side counterpart of the Section 4.5 hardening.
    """
    import networkx as nx

    diagonal = [
        label
        for label in derived.labels
        if (label, label) in derived.node_constraint
    ]
    graph = nx.Graph()
    graph.add_nodes_from(diagonal)
    for a, b in combinations(diagonal, 2):
        if derived.allows_edge(a, b):
            graph.add_edge(a, b)
    best = 0
    for clique in nx.find_cliques(graph):
        best = max(best, len(clique))
    return best


# -- E3: weak 2-coloring (Section 4.6) ---------------------------------------


@dataclass(frozen=True)
class Weak2Result:
    delta: int
    usable_half_labels: int
    usable_edge_rows: int
    trit_description_isomorphic: bool
    h1_size: int
    self_compatible_configs: int

    @property
    def reproduces_paper(self) -> bool:
        # "there are only 7 outputs that can be used", 4 usable rows (the
        # paper lists 5, one involving the unusable empty set), and "h_1(D)
        # actually contains only 9 elements (or fewer if D is very small)".
        return (
            self.usable_half_labels == 7
            and self.usable_edge_rows == 4
            and self.trit_description_isomorphic
            and self.h1_size == 9
        )


def run_weak2(delta: int) -> Weak2Result:
    """E3: the Section 4.6 analysis of weak 2-coloring's derived problems."""
    from repro.superweak.equivalents import weak2_half_equivalent

    problem = weak_coloring_pointer(2, delta)
    half = half_step(problem)
    half_problem = half.problem.compressed()
    result = get_default_engine().speedup(problem)
    full = result.full

    # A config can be shared by a node and ALL its neighbors iff every entry
    # has an edge partner within the config's support (each neighbor arranges
    # the same multiset freely).  The paper's special element Q is among
    # these -- the one that defeats the naive weak 9-coloring relaxation.
    from repro.superweak.weak9 import fully_self_compatible_configs

    self_compatible = len(fully_self_compatible_configs(full))

    return Weak2Result(
        delta=delta,
        usable_half_labels=len(half_problem.labels),
        usable_edge_rows=len(half_problem.edge_constraint),
        trit_description_isomorphic=are_isomorphic(
            half_problem, weak2_half_equivalent(delta).compressed()
        ),
        h1_size=len(full.node_constraint),
        self_compatible_configs=self_compatible,
    )


# -- E4: superweak half-step equivalence (Section 5.1) -----------------------


@dataclass(frozen=True)
class SuperweakHalfResult:
    k: int
    delta: int
    isomorphic: bool
    engine_labels: int
    expected_labels: int

    @property
    def reproduces_paper(self) -> bool:
        return self.isomorphic and self.engine_labels == self.expected_labels


def run_superweak_half(k: int, delta: int) -> SuperweakHalfResult:
    """E4: the engine's ``Pi'_{1/2}`` of superweak k is the trit-sequence problem."""
    from repro.superweak.equivalents import superweak_half_equivalent

    engine = half_step(superweak(k, delta)).problem.compressed()
    equivalent = superweak_half_equivalent(k, delta).compressed()
    return SuperweakHalfResult(
        k=k,
        delta=delta,
        isomorphic=are_isomorphic(engine, equivalent),
        engine_labels=len(engine.labels),
        expected_labels=len(equivalent.labels),
    )


# -- E5/E6/E7 helpers: engine-derived superweak Pi'_1 in trit form -----------


from functools import lru_cache


@lru_cache(maxsize=8)
def superweak_full_in_trit_form(
    k: int, delta: int
) -> tuple[Problem, dict[str, frozenset[str]]]:
    """The engine's ``Pi'_1`` of superweak k plus label -> set-of-tritseqs map.

    Cached twice over: the lru_cache memoises the trit mapping, and the
    engine's content-addressed cache memoises the derivation itself.
    """
    from repro.superweak.equivalents import superweak_half_equivalent

    result = get_default_engine().speedup(superweak(k, delta))
    mapping = find_isomorphism(
        result.half.compressed(),
        superweak_half_equivalent(k, delta).compressed(),
    )
    if mapping is None:
        raise AssertionError("half-step trit equivalence failed -- regression")
    to_trit = {
        label: frozenset(mapping[h] for h in result.full_meaning[label])
        for label in result.full.labels
    }
    return result.full, to_trit


@dataclass(frozen=True)
class MembershipCrossCheck:
    k: int
    delta: int
    configs: int
    all_property_a: bool
    all_maximal: bool
    oracle_matches_bruteforce: bool


def run_membership_crosscheck(k: int, delta: int) -> MembershipCrossCheck:
    """E5: the condensed MILP oracle agrees with the engine and brute force.

    Every engine-derived ``h'_1`` element must satisfy Property A and
    Property B according to the condensed-count oracle; on the same inputs
    the explicit brute-force checker must agree with the MILP decision.
    """
    from repro.superweak.membership import (
        CondensedConfig,
        is_maximal,
        property_a_bruteforce,
        property_a_holds,
    )

    full, to_trit = superweak_full_in_trit_form(k, delta)
    all_a = True
    all_b = True
    agree = True
    for config in sorted(full.node_constraint):
        condensed = CondensedConfig.from_sequence([to_trit[lbl] for lbl in config])
        a = property_a_holds(condensed, k)
        all_a = all_a and a
        all_b = all_b and is_maximal(condensed, k)
        agree = agree and (a == property_a_bruteforce(condensed, k))
    return MembershipCrossCheck(
        k=k,
        delta=delta,
        configs=len(full.node_constraint),
        all_property_a=all_a,
        all_maximal=all_b,
        oracle_matches_bruteforce=agree,
    )


@dataclass(frozen=True)
class Lemma3LocalCheck:
    k: int
    delta: int
    same_r_pairs_checked: int
    violations_under_hypothesis: int
    violations_total: int

    @property
    def reproduces_paper(self) -> bool:
        """No violation may occur where Lemma 1's conclusion holds."""
        return self.violations_under_hypothesis == 0


def run_lemma3_local_check(
    k: int, delta: int, max_configs: int | None = None
) -> Lemma3LocalCheck:
    """E7 (local half): the Lemma 3 demanding/accepting promise.

    For every pair of same-R adjacent node outputs with opposite orientations
    on the shared edge, a demanding pointer must be answered by an accepting
    one -- *whenever* the dominant element P_infinity is unique and contains
    ``11...1`` (Lemma 1's conclusion).  Violations outside that hypothesis
    are expected (the degree is far below ``2^(4^k) + 1``) and counted
    separately: their existence demonstrates the hypothesis is not vacuous.

    ``max_configs`` limits the number of node configurations scanned (for
    fast test variants); the benchmarks run the full scan.
    """
    from repro.superweak.lemma1 import find_p_infinity
    from repro.superweak.lemma2 import Lemma2Error, compute_pointer_sets, g1_allows
    from repro.superweak.lemma3 import canonical_r
    from repro.superweak.membership import CondensedConfig

    full, to_trit = superweak_full_in_trit_form(k, delta)
    checked = 0
    violations_good = 0
    violations_all = 0
    configs = sorted(full.node_constraint)
    if max_configs is not None:
        configs = configs[:max_configs]
    for config in configs:
        q = [to_trit[lbl] for lbl in config]
        p_inf = find_p_infinity(CondensedConfig.from_sequence(q), k)
        hypothesis = p_inf.contains_all_ones and p_inf.unique_dominant
        for i in range(delta):
            for j in range(delta):
                if not g1_allows(q[i], q[j]):
                    continue
                for rest_u in product(("in", "out"), repeat=delta - 1):
                    alpha_u = list(rest_u[:i]) + ["out"] + list(rest_u[i:])
                    for rest_v in product(("in", "out"), repeat=delta - 1):
                        alpha_v = list(rest_v[:j]) + ["in"] + list(rest_v[j:])
                        if canonical_r(q, alpha_u, k) != canonical_r(q, alpha_v, k):
                            continue
                        try:
                            pu = compute_pointer_sets(q, alpha_u, k)
                            pv = compute_pointer_sets(q, alpha_v, k)
                        except Lemma2Error:
                            continue
                        checked += 1
                        if i in pu.j_star and j not in pv.n_of_j_star:
                            violations_all += 1
                            if hypothesis:
                                violations_good += 1
    return Lemma3LocalCheck(
        k=k,
        delta=delta,
        same_r_pairs_checked=checked,
        violations_under_hypothesis=violations_good,
        violations_total=violations_all,
    )


@dataclass(frozen=True)
class Lemma3GraphDemo:
    k: int
    delta: int
    n: int
    solution_valid: bool
    superweak_valid: bool
    colors_used: int
    within_budget: bool

    @property
    def reproduces_paper(self) -> bool:
        return self.solution_valid and self.superweak_valid and self.within_budget


def run_lemma3_graph_demo(k: int = 2, delta: int = 4) -> Lemma3GraphDemo:
    """E7 (graph half): a full Lemma 3 run on the 4-dimensional hypercube.

    Builds a valid ``Pi'_1`` solution on ``Q_4`` (two node classes whose port
    labels pair up along each dimension), orients all edges from even to odd
    parity, transforms every node via Lemma 3, and verifies the result is a
    correct superweak coloring.
    """
    import networkx as nx

    from repro.sim.ports import InputLabeling, PortGraph
    from repro.sim.verifier import solves, verify_superweak_coloring
    from repro.superweak.lemma2 import Lemma2Error, compute_pointer_sets, g1_allows
    from repro.superweak.lemma3 import SuperweakColoringTransformer
    from repro.utils.matching import maximum_bipartite_matching

    if delta != 4:
        raise ValueError("the hypercube demo is built for delta = 4")
    full, to_trit = superweak_full_in_trit_form(k, delta)
    configs = sorted(full.node_constraint)

    chosen = None
    for even_cfg in configs:
        for odd_cfg in configs:
            adjacency = {
                i: [
                    j
                    for j in range(delta)
                    if g1_allows(to_trit[even_cfg[i]], to_trit[odd_cfg[j]])
                ]
                for i in range(delta)
            }
            matching = maximum_bipartite_matching(adjacency)
            if len(matching) < delta:
                continue
            try:
                compute_pointer_sets(
                    [to_trit[x] for x in even_cfg], ["out"] * delta, k
                )
                compute_pointer_sets(
                    [to_trit[x] for x in odd_cfg], ["in"] * delta, k
                )
            except Lemma2Error:
                continue
            chosen = (even_cfg, odd_cfg, matching)
            break
        if chosen:
            break
    if chosen is None:
        raise AssertionError("no bipartite configuration pair found -- regression")
    even_cfg, odd_cfg, matching = chosen

    graph = nx.hypercube_graph(4)
    graph = nx.relabel_nodes(
        graph, {node: sum(bit << i for i, bit in enumerate(node)) for node in graph.nodes}
    )
    order = {v: [v ^ (1 << d) for d in range(4)] for v in graph.nodes}
    pg = PortGraph(graph, order)

    def parity(v: int) -> int:
        return bin(v).count("1") % 2

    outputs = {}
    for v in graph.nodes:
        for d in range(4):
            outputs[(v, d)] = even_cfg[d] if parity(v) == 0 else odd_cfg[matching[d]]

    orientation = {}
    for u, v in graph.edges:
        tail, head = (u, v) if parity(u) == 0 else (v, u)
        key = (u, v) if u <= v else (v, u)
        orientation[key] = (tail, head)
    inputs = InputLabeling(orientation=orientation)

    transformer = SuperweakColoringTransformer(k=k)
    colors: dict[int, int] = {}
    kinds: dict[tuple[int, int], str] = {}
    for v in pg.nodes():
        q_list = [to_trit[outputs[(v, port)]] for port in range(4)]
        alpha = [inputs.orientation_at(pg, v, port) for port in range(4)]
        node_out = transformer.transform_node(q_list, alpha)
        colors[v] = node_out.color
        for port, kind in enumerate(node_out.kinds):
            kinds[(v, port)] = kind

    return Lemma3GraphDemo(
        k=k,
        delta=delta,
        n=graph.number_of_nodes(),
        solution_valid=solves(full, pg, outputs),
        superweak_valid=verify_superweak_coloring(
            graph, pg, max(2, transformer.colors_used), colors, kinds
        ),
        colors_used=transformer.colors_used,
        within_budget=transformer.within_color_budget(),
    )


# -- E10: maximality costs nothing (Theorem 2) --------------------------------


@dataclass(frozen=True)
class MaximalityResult:
    problem_name: str
    zero_round_match: bool
    simplified_relaxes_raw: bool

    @property
    def reproduces_paper(self) -> bool:
        return self.zero_round_match and self.simplified_relaxes_raw


def run_maximality(problem: Problem) -> MaximalityResult:
    """E10: simplified and unsimplified derivations agree on solvability.

    Checks (a) equal 0-round solvability (with orientations) of the derived
    problems and (b) that the simplified problem maps into the unsimplified
    one by a relaxation map (every Pi'_1 solution is a Pi_1 solution --
    Theorem 2's easy direction), so neither derivation can be strictly
    harder in 0 rounds.

    The relaxation map is *constructed*, not searched: both derivations
    carry meanings over the same original alphabet, and a simplified label
    (a set of Galois-closed sets) denotes the same set of sets as the raw
    label with equal meaning -- identity on meanings is the embedding.
    """
    from repro.core.relaxation import is_relaxation_map

    engine = get_default_engine()
    simplified_result = engine.speedup(problem, simplify=True)
    raw_result = engine.speedup(problem, simplify=False)
    simplified = simplified_result.full.compressed()
    raw = raw_result.full.compressed()
    zero_simplified = zero_round_with_orientations(simplified) is not None
    zero_raw = zero_round_with_orientations(raw) is not None

    raw_by_meaning = {
        frozenset(raw_result.full_label_as_original_sets(label)): label
        for label in raw.labels
    }
    mapping: dict[str, str] = {}
    for label in simplified.usable_labels:
        meaning = frozenset(simplified_result.full_label_as_original_sets(label))
        target = raw_by_meaning.get(meaning)
        if target is None:
            break
        mapping[label] = target
    relaxes = len(mapping) == len(simplified.usable_labels) and is_relaxation_map(
        simplified, raw, mapping
    )
    return MaximalityResult(
        problem_name=problem.name,
        zero_round_match=(zero_simplified == zero_raw),
        simplified_relaxes_raw=relaxes,
    )


# -- E11: t-independence of ring classes (Figure 1) ---------------------------


@dataclass(frozen=True)
class IndependenceResult:
    n: int
    t: int
    colored_class_independent: bool
    id_class_independent: bool

    @property
    def reproduces_paper(self) -> bool:
        """Colorings pass; unique IDs fail (the paper's Section 2.2 point)."""
        return self.colored_class_independent and not self.id_class_independent


def run_independence(n: int = 5, t: int = 1, num_colors: int = 3) -> IndependenceResult:
    """E11: ring classes with colorings are t-independent; with unique IDs not."""
    from itertools import permutations as iter_permutations

    from repro.sim.independence import check_t_independence
    from repro.sim.ports import InputLabeling, PortGraph
    from repro.sim.speedup_exec import ColoredRingClass

    colored = ColoredRingClass(n=n, num_colors=num_colors)
    colored_report = check_t_independence(colored.instances(), t)

    # The unique-ID class: all assignments of n distinct IDs from {1..n+1}.
    from repro.sim.graphs import ring as ring_graph

    graph = ring_graph(n)

    def id_instances() -> Iterator[tuple[PortGraph, InputLabeling]]:
        pool = range(1, n + 2)
        for chosen in iter_permutations(pool, n):
            ids = {v: chosen[v] for v in range(n)}
            yield PortGraph(graph), InputLabeling(ids=ids)

    id_report = check_t_independence(id_instances(), t)
    return IndependenceResult(
        n=n,
        t=t,
        colored_class_independent=colored_report.independent,
        id_class_independent=id_report.independent,
    )
