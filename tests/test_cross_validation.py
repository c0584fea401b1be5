"""Cross-validation: the simulation argument end-to-end, plus format fuzzing.

Two seeded property suites (plain ``random``, no extra dependencies):

* **Simulation argument.**  For the small catalog problems, derive ``Pi_1``
  with the engine, find a concrete ``Pi_1`` solution on random port graphs
  with the centralized solver, and decode it back to a ``Pi`` solution via
  the provenance maps (:mod:`repro.sim.reconstruct`) -- the executable
  (2) => (1) direction of Theorem 1.  Both the ``Pi_1`` solution and the
  decoded ``Pi`` solution are checked by the locally-checkable verifier.

* **Format fuzzing.**  Random problems round-trip through the textual
  format (``format_problem`` / ``parse_problem``) exactly, and the
  canonical hash (:mod:`repro.core.canonical`) is invariant under both the
  round trip and random label renamings.
"""

import random

import networkx as nx
import pytest

from repro.core.canonical import canonical_hash
from repro.core.format import format_problem, parse_problem
from repro.core.problem import Problem
from repro.core.speedup import EngineLimitError
from repro.engine import Engine
from repro.problems.catalog import get_problem
from repro.sim.graphs import ring
from repro.sim.ports import PortGraph
from repro.sim.reconstruct import reconstruct_original_outputs
from repro.sim.solver import SolverBudgetExceeded, solve_problem_on_graph
from repro.sim.verifier import solves, verify_outputs


@pytest.fixture(scope="module")
def engine():
    return Engine()


# -- the simulation argument on random port graphs -----------------------------

# (family, delta, graph description); graphs must be delta-regular because
# node constraints fix the exact arity.
SIMULATION_CASES = [
    ("sinkless-coloring", 2, "ring5"),
    ("sinkless-coloring", 3, "k4"),
    ("sinkless-orientation", 2, "ring4"),
    ("sinkless-orientation", 3, "k4"),
    ("2-coloring", 2, "ring4"),
    ("2-coloring", 2, "ring5"),
    ("3-coloring", 2, "ring5"),
    ("mis", 2, "ring5"),
    ("mis", 3, "k4"),
    ("perfect-matching", 2, "ring4"),
    ("perfect-matching", 3, "k4"),
    ("maximal-matching", 2, "ring5"),
    ("maximal-matching", 3, "k4"),
    ("weak-2-coloring", 3, "k4"),
]

GRAPHS = {
    "ring4": lambda: ring(4),
    "ring5": lambda: ring(5),
    "k4": lambda: nx.complete_graph(4),
}


@pytest.mark.parametrize("name,delta,graph_key", SIMULATION_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_simulation_argument_end_to_end(engine, name, delta, graph_key, seed):
    problem = get_problem(name, delta)
    result = engine.speedup(problem)
    pg = PortGraph.with_random_ports(GRAPHS[graph_key](), seed=seed)

    try:
        derived_solution = solve_problem_on_graph(result.full, pg, budget=500_000)
    except SolverBudgetExceeded:
        pytest.skip(f"solver budget exceeded on {name}")
    if derived_solution is None:
        # Pi_1 unsatisfiable on this instance (e.g. 2-coloring an odd ring):
        # nothing to decode; the verifier has nothing to contradict.
        return

    # Solver cross-check: the solution really satisfies Pi_1 locally.
    assert solves(result.full, pg, derived_solution)

    # The (2) => (1) direction: decoding must succeed and solve Pi outright.
    reconstructed = reconstruct_original_outputs(result, pg, derived_solution)
    assert reconstructed is not None, "existential choice failed on a valid Pi_1 output"
    violations = verify_outputs(problem, pg, reconstructed)
    assert not violations, f"decoded Pi solution violates constraints: {violations}"


def test_reconstruction_rejects_invalid_outputs(engine):
    """Feeding a constraint-violating Pi_1 assignment must not 'succeed'."""
    problem = get_problem("sinkless-coloring", 3)
    result = engine.speedup(problem)
    pg = PortGraph.with_random_ports(nx.complete_graph(4), seed=3)
    # All-same-label assignments violate the derived constraints for some
    # label; find one where decoding fails outright or the decode is invalid.
    saw_rejection = False
    for label in sorted(result.full.labels):
        outputs = {(v, p): label for v in pg.nodes() for p in range(pg.degree(v))}
        if solves(result.full, pg, outputs):
            continue
        decoded = reconstruct_original_outputs(result, pg, outputs)
        if decoded is None or not solves(problem, pg, decoded):
            saw_rejection = True
    assert saw_rejection


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 11])
def test_simulation_argument_on_petersen(engine, seed):
    """The same end-to-end check on a girth-5 cage (larger instance)."""
    from repro.sim.graphs import petersen

    problem = get_problem("sinkless-orientation", 3)
    result = engine.speedup(problem)
    pg = PortGraph.with_random_ports(petersen(), seed=seed)
    solution = solve_problem_on_graph(result.full, pg, budget=2_000_000)
    assert solution is not None
    reconstructed = reconstruct_original_outputs(result, pg, solution)
    assert reconstructed is not None
    assert solves(problem, pg, reconstructed)


# -- format / canonical-hash fuzzing ------------------------------------------


def _random_problem(rng: random.Random) -> Problem:
    delta = rng.randint(1, 4)
    # Labels are any whitespace-free tokens not starting with '#' (the
    # comment marker), per the format's grammar.
    alphabet = rng.sample(
        ["0", "1", "a", "b", "x7", "{p}", "q|r", "c#", "zz", "L10"],
        rng.randint(1, 6),
    )
    edge_count = rng.randint(1, min(6, len(alphabet) * (len(alphabet) + 1) // 2))
    node_count = rng.randint(1, 6)
    edges = {
        tuple(sorted(rng.choices(alphabet, k=2))) for _ in range(edge_count)
    }
    nodes = {tuple(sorted(rng.choices(alphabet, k=delta))) for _ in range(node_count)}
    return Problem.make(
        name=f"fuzz-{rng.randrange(10**6)}",
        delta=delta,
        edge_configs=edges,
        node_configs=nodes,
        labels=alphabet,
    )


@pytest.mark.parametrize("seed", range(25))
def test_format_roundtrip_fuzz(seed):
    rng = random.Random(seed)
    for _ in range(8):
        problem = _random_problem(rng)
        text = format_problem(problem)
        parsed = parse_problem(text)
        assert parsed == problem
        assert format_problem(parsed) == text
        assert canonical_hash(parsed) == canonical_hash(problem)


@pytest.mark.parametrize("seed", range(25))
def test_canonical_hash_invariant_under_renaming_fuzz(seed):
    rng = random.Random(1000 + seed)
    for _ in range(6):
        problem = _random_problem(rng)
        fresh = [f"r{index}" for index in range(len(problem.labels))]
        rng.shuffle(fresh)
        mapping = dict(zip(sorted(problem.labels), fresh))
        renamed = problem.renamed(mapping, name="fuzz-renamed")
        assert canonical_hash(renamed) == canonical_hash(problem)
        # ...and the renamed twin round-trips through the format as well.
        assert canonical_hash(parse_problem(format_problem(renamed))) == canonical_hash(
            problem
        )


@pytest.mark.parametrize("seed", range(10))
def test_speedup_commutes_with_renaming_fuzz(engine, seed):
    """Content-addressed caching is sound: speedup(rename(P)) ~ speedup(P)."""
    from repro.core.canonical import are_isomorphic

    rng = random.Random(2000 + seed)
    problem = _random_problem(rng)
    fresh = [f"s{index}" for index in range(len(problem.labels))]
    mapping = dict(zip(sorted(problem.labels), fresh))
    renamed = problem.renamed(mapping, name="fuzz-renamed")
    try:
        first = engine.speedup(problem).full
        second = engine.speedup(renamed).full
    except EngineLimitError:
        pytest.skip("random instance too large for the configured guards")
    assert are_isomorphic(first.compressed(), second.compressed())


# -- executing a certified upper bound -----------------------------------------
#
# An UpperBoundCertificate ships an actual algorithm: the terminal witness is
# a 0-round output rule keyed on edge-orientation in-degrees, and each
# speedup step decodes one round backward through its provenance maps.  This
# suite *runs* that algorithm on seeded random port-numbered rings (the
# delta=2 regular class) under seeded random orientations and checks the
# final labeling against the certified problem -- the upper-bound dual of
# the simulation-argument suite above.


def _witness_outputs(witness, pg, labeling):
    """Run the 0-round algorithm a witness encodes on an oriented port graph.

    Each node counts its incoming edges, looks up the split for that
    in-degree, and writes the in-labels on incoming ports and the out-labels
    on outgoing ones (in any order: the witness guarantees every chosen
    in-label is edge-compatible with every chosen out-label).
    """
    outputs = {}
    for v in pg.nodes():
        directions = [
            labeling.orientation_at(pg, v, port) for port in range(pg.degree(v))
        ]
        ins, outs = witness.splits[directions.count("in")]
        ins, outs = list(ins), list(outs)
        for port, direction in enumerate(directions):
            outputs[(v, port)] = ins.pop() if direction == "in" else outs.pop()
    return outputs


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certified_upper_bound_executes(engine, n, seed):
    from repro.core.certificate import SPEEDUP
    from repro.problems import indegree_handshake
    from repro.sim.ports import InputLabeling, random_orientation

    problem = indegree_handshake(2)
    result = engine.search_upper_bound(problem, max_steps=3)
    certificate = result.certificate
    assert certificate is not None and certificate.verify().valid
    assert certificate.claimed_rounds == 1

    pg = PortGraph.with_random_ports(ring(n), seed=seed)
    labeling = InputLabeling(
        orientation=random_orientation(pg.graph, seed=seed + 100)
    )

    # Round 0: the witness rule solves the terminal problem outright.
    outputs = _witness_outputs(certificate.witness, pg, labeling)
    assert solves(certificate.final_problem, pg, outputs)

    # Decode backward through the chain: each speedup step simulates one
    # round; hardening steps cost nothing (a solution of the restriction
    # solves its source verbatim).
    rounds_simulated = 0
    for step in reversed(certificate.steps):
        if step.kind == SPEEDUP:
            outputs = reconstruct_original_outputs(step.speedup, pg, outputs)
            assert outputs is not None, "decode failed on a valid terminal output"
            rounds_simulated += 1
    assert rounds_simulated == certificate.claimed_rounds
    violations = verify_outputs(problem, pg, outputs)
    assert not violations, f"executed upper bound violates constraints: {violations}"
