"""Limit trips of the streaming full step, pinned cell by cell.

The full step refuses a step that will trip ``max_candidate_configs``
before it streams a single completion: it first walks the prefixes with a
leaf that only counts work units, and raises the stream's own error when
the count passes the cap while no more than ``max_live_configs``
completions come before the trip.  Which limit fires, its ``observed``
count and its message must not depend on whether the step was refused or
streamed.

``tests/goldens/full_step_trips.json`` holds the outcomes recorded before
early refusal existed, on a ``max_candidate_configs`` x
``max_live_configs`` grid:

* six ``derive-cold`` catalog cases at caps ``0``, ``W // 2``, ``W - 1``
  and ``W``, where ``W`` is the smallest cap that completes, each with
  ``max_live_configs`` ``1``, ``peak - 1``, ``peak`` (the frontier peak of
  the completed step) and ``1_000_000``;
* the five problems whose full step trips ``max_candidate_configs`` in
  ``classify weak-2-coloring --delta 3 --max-steps 2 --max-labels 2000
  --max-candidate-configs 50000`` (saved with ``to_dict()``) at caps
  ``40_000``, ``50_000`` and ``200_000``, each with ``max_live_configs``
  ``10``, ``100``, ``1000`` and ``1_000_000``.

An outcome is ``["ok", sha256 of the result's to_dict() JSON]`` or
``[limit_name, observed, message]``.  The grid covers every path: trips
before the full step (the half step's a-priori guard), steps whose
a-priori bound stays within the cap (no count), refusals, counts that
hand over to a stream that trips on either limit, and counts followed by
a completed stream.  The trip-problem cells with ``max_live_configs`` 100
or 1000 stream tens of thousands of completions each and run under
``-m slow``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from test_enumeration_invariant import PINNED_DIGESTS

from repro.core.limits import EngineLimitError
from repro.core.problem import Problem
from repro.core.speedup import (
    HalfStepResult,
    _multiset_count,
    _stream_work_bound,
    _walk_prefixes,
    compute_speedup,
    full_step,
    half_step,
)
from repro.core.vectorkernel import KernelStats
from repro.problems.catalog import get_problem

FIXTURE = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "full_step_trips.json").read_text()
)
OUTCOMES: list[tuple[str, int, int, list[object]]] = [
    (case, cap, live, outcome) for case, cap, live, outcome in FIXTURE["outcomes"]
]


def _problem(case: str) -> Problem:
    if case in FIXTURE["problems"]:
        return Problem.from_dict(FIXTURE["problems"][case])
    name, delta = case[:-1].split("[")
    return get_problem(name, int(delta))


def _outcome(problem: Problem, cap: int, live: int) -> list[object]:
    try:
        result = compute_speedup(problem, max_candidate_configs=cap, max_live_configs=live)
    except EngineLimitError as error:
        return [error.limit_name, error.observed, str(error)]
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    return ["ok", hashlib.sha256(payload).hexdigest()]


def _cell(case: str, cap: int, live: int, outcome: list[object]) -> object:
    slow = case.startswith("trip-") and live in (100, 1000)
    return pytest.param(
        case,
        cap,
        live,
        outcome,
        id=f"{case}-{cap}-{live}",
        marks=[pytest.mark.slow] if slow else [],
    )


@pytest.mark.parametrize(
    ("case", "cap", "live", "outcome"), [_cell(*row) for row in OUTCOMES]
)
def test_trip_outcome_matches_the_record(
    case: str, cap: int, live: int, outcome: list[object]
) -> None:
    assert _outcome(_problem(case), cap, live) == outcome


def test_the_grid_holds_what_it_claims() -> None:
    """Completed cells carry the pinned digests, ``W - 1`` trips on
    candidates with ``observed == W``, and ``max_live_configs`` fires on
    cells whose cap is passed as well."""
    roomy = {(case, cap): outcome for case, cap, live, outcome in OUTCOMES if live == 1_000_000}
    for case, _, _, outcome in OUTCOMES:
        if outcome[0] == "ok":
            assert outcome[1] == PINNED_DIGESTS[case], case
    for case in {case for case, _ in roomy if not case.startswith("trip-")}:
        smallest = min(
            cap for (name, cap), outcome in roomy.items() if (name, outcome[0]) == (case, "ok")
        )
        assert roomy[case, smallest - 1][:2] == ["max_candidate_configs", smallest], case
    live_wins = [
        (case, cap)
        for case, cap, _, outcome in OUTCOMES
        if outcome[0] == "max_live_configs" and roomy[case, cap][0] == "max_candidate_configs"
    ]
    assert len(live_wins) >= 5


def _trip_half(case: str = "trip-4") -> HalfStepResult:
    return half_step(_problem(case), max_candidate_configs=50_000)


def test_a_refused_step_leaves_the_stream_counters_at_zero() -> None:
    stats = KernelStats()
    with pytest.raises(EngineLimitError) as trip:
        full_step(_trip_half(), max_candidate_configs=50_000, stats=stats)
    assert (trip.value.limit_name, trip.value.observed) == ("max_candidate_configs", 50_001)
    assert stats.matching_calls == 0
    assert stats.configs_streamed == 0
    assert stats.frontier_peak == 0
    assert stats.matching_s == 0.0
    assert stats.domination_s == 0.0


def test_a_streamed_trip_still_fills_the_stream_counters() -> None:
    """More completions than ``max_live_configs`` before the cap: the count
    cannot rule out a live trip, so the stream runs (and here it fires)."""
    stats = KernelStats()
    with pytest.raises(EngineLimitError) as trip:
        full_step(_trip_half(), max_candidate_configs=50_000, max_live_configs=10, stats=stats)
    assert (trip.value.limit_name, trip.value.observed) == ("max_live_configs", 11)
    assert stats.matching_calls > 0
    assert stats.configs_streamed > 0


def test_multiset_count_is_total() -> None:
    assert _multiset_count(0, 0) == 1
    assert _multiset_count(5, 0) == 1
    assert _multiset_count(0, 3) == 0
    assert _multiset_count(4, 2) == 10


@pytest.mark.parametrize(
    ("count", "delta"), [(0, 1), (3, 1), (0, 3), (1, 2), (4, 2), (3, 3), (3, 4)]
)
def test_the_work_bound_is_exact_when_every_prefix_extends(count: int, delta: int) -> None:
    """With no minimal elements every candidate extends every prefix, so
    the walk charges exactly the a-priori bound: that cap completes and
    one less trips on the unit past it."""
    bound = _stream_work_bound(count, delta)
    leaves: list[tuple[int, ...]] = []

    def walk(cap: int) -> None:
        leaves.clear()
        _walk_prefixes(
            count,
            delta,
            [()] * count,
            1,
            lambda choice: 1,
            cap,
            lambda prefix, choices: leaves.append(tuple(prefix)),
            KernelStats(),
        )

    walk(bound)
    assert len(leaves) == _multiset_count(count, delta - 1)
    if bound:
        with pytest.raises(EngineLimitError) as trip:
            walk(bound - 1)
        assert trip.value.observed == bound
