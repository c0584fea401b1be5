"""The move generator's output, pinned move by move.

``tests/goldens/move_lists.json`` holds, per source problem, every move of
``generate_moves(max_moves=256)`` and of ``generate_hardenings(max_moves=64)``
in order: its kind, its detail, the sha256 of its sorted label map and the
sha256 of its target's ``to_dict()`` JSON.  The records were taken while the
generator still built targets from index-pair sets and re-certified every
survivor on the string surface.  A change to the candidate order, to the
dedup (exact or up to renaming) or to any target fails here.

The sources are the 200 seeded problems of ``test_differential_kernel.py``
and each ``derive-cold`` ``Pi_1`` whose description size is at most 50,000.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from test_differential_kernel import SEED_COUNT, random_problem

from repro.core.problem import Problem
from repro.core.speedup import compute_speedup
from repro.problems.catalog import get_problem
from repro.search.moves import RelaxationMove, generate_hardenings, generate_moves

FIXTURE = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "move_lists.json").read_text()
)

#: ``derive-cold`` cases whose ``Pi_1`` has description size <= 50,000; the
#: 976-label weak-3/superweak-3 ``Pi_1`` (size 747,838) are past it.
DERIVED_CASES: tuple[tuple[str, int], ...] = (
    ("sinkless-orientation", 3),
    ("sinkless-coloring", 5),
    ("3-coloring", 3),
    ("mis", 3),
    ("maximal-matching", 3),
    ("weak-2-coloring", 3),
    ("weak-2-coloring", 4),
    ("superweak-2-coloring", 3),
    ("4-coloring", 2),
)

#: Derived sources too slow to pin in tier-1 (164 labels, 256 merges).
SLOW_CASES = {"4-coloring[2]"}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _record(move: RelaxationMove) -> list[str]:
    return [
        move.kind,
        move.detail,
        _digest(sorted(move.mapping.items())),
        _digest(move.target.to_dict()),
    ]


def move_lists(problem: Problem) -> dict[str, list[list[str]]]:
    """The pinned records of both generators on ``problem``."""
    return {
        "moves": [_record(move) for move in generate_moves(problem, max_moves=256)],
        "hardenings": [
            _record(move) for move in generate_hardenings(problem, max_moves=64)
        ],
    }


def derived_source(case: str) -> Problem:
    name, delta = case[:-1].split("[")
    return compute_speedup(get_problem(name, int(delta))).full


def test_the_fixture_covers_every_source() -> None:
    assert sorted(FIXTURE["seeded"]) == sorted(str(seed) for seed in range(SEED_COUNT))
    assert sorted(FIXTURE["derived"]) == sorted(
        f"{name}[{delta}]" for name, delta in DERIVED_CASES
    )


def test_seeded_move_lists_match_the_record() -> None:
    for seed in range(SEED_COUNT):
        assert move_lists(random_problem(seed)) == FIXTURE["seeded"][str(seed)], seed


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            f"{name}[{delta}]",
            marks=[pytest.mark.slow] if f"{name}[{delta}]" in SLOW_CASES else [],
        )
        for name, delta in DERIVED_CASES
    ],
)
def test_derived_move_lists_match_the_record(case: str) -> None:
    source = derived_source(case)
    assert source.description_size <= 50_000
    assert move_lists(source) == FIXTURE["derived"][case]
