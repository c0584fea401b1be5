"""E10/E11 plus raw engine micro-benchmarks."""

import pytest

from repro.analysis.experiments import run_independence, run_maximality
from repro.core.canonical import find_isomorphism
from repro.core.speedup import half_step, speedup
from repro.core.zero_round import zero_round_with_orientations
from repro.problems.catalog import get_problem
from repro.problems.sinkless import sinkless_coloring
from repro.problems.weak_coloring import weak_coloring_pointer


def test_bench_maximality_costs_nothing(benchmark, sc3=None):
    """E10 (Theorem 2): simplified vs raw derivations agree."""
    problem = sinkless_coloring(3)
    result = benchmark.pedantic(run_maximality, args=(problem,), rounds=1, iterations=1)
    assert result.reproduces_paper


def test_bench_t_independence(benchmark):
    """E11 (Figure 1): colored rings pass, unique IDs fail."""
    result = benchmark.pedantic(
        run_independence, kwargs={"n": 5, "t": 1, "num_colors": 3}, rounds=1, iterations=1
    )
    assert result.reproduces_paper
    benchmark.extra_info["colored_independent"] = result.colored_class_independent
    benchmark.extra_info["ids_independent"] = result.id_class_independent


@pytest.mark.parametrize(
    "name,delta",
    [
        ("sinkless-coloring", 5),
        ("mis", 3),
        ("maximal-matching", 3),
        ("weak-2-coloring", 4),
        ("superweak-2-coloring", 3),
    ],
)
def test_bench_speedup_across_catalog(benchmark, name, delta):
    """Engine throughput across the catalog (one full derivation each)."""
    problem = get_problem(name, delta)
    derived = benchmark.pedantic(
        lambda: speedup(problem).full, rounds=1, iterations=1
    )
    assert derived.labels
    benchmark.extra_info["derived_labels"] = len(derived.labels)
    benchmark.extra_info["derived_node_configs"] = len(derived.node_constraint)


def test_bench_half_step_weak2_delta5(benchmark):
    problem = weak_coloring_pointer(2, 5)
    half = benchmark.pedantic(
        lambda: half_step(problem).problem, rounds=1, iterations=1
    )
    assert len(half.compressed().labels) == 7


def test_bench_isomorphism(benchmark):
    first = speedup(sinkless_coloring(4)).full.compressed()
    second = sinkless_coloring(4).compressed()
    mapping = benchmark(lambda: find_isomorphism(first, second))
    assert mapping is not None


def test_bench_zero_round_orientations(benchmark):
    problem = get_problem("superweak-2-coloring", 4)
    result = benchmark(lambda: zero_round_with_orientations(problem))
    assert result is None  # superweak-2 is not 0-round solvable
