"""The derivation's enumeration, pinned by its counters.

The full step walks prefixes in a fixed DFS order, asks the Hall oracle once
per min-choice (stopping at the first empty answer) and streams every
completion into the domination frontier.  A change to how a work unit is
computed -- the oracle, the sort key of a configuration, the frontier's
scan order -- must leave that walk alone, or limit trips would fire at
other points and report other ``observed`` counts.  The counters below were
recorded from the derivation before the work unit was rewritten around
rank keys and the batched ``AllowsTable.allowed_next``; they must hold in
fresh interpreters with different ``PYTHONHASHSEED`` values.

Each row: ``matching_calls``, ``configs_streamed``, ``frontier_peak``, and
the node-configuration counts of ``Pi_{1/2}`` and ``Pi_1``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: The eleven cold derivations of the ``derive-cold`` benchmark workload.
PINNED: dict[str, tuple[int, int, int, int, int]] = {
    "sinkless-orientation[3]": (11, 6, 1, 3, 1),
    "sinkless-coloring[5]": (5, 5, 1, 5, 1),
    "3-coloring[3]": (119, 42, 7, 27, 6),
    "mis[3]": (22, 13, 4, 10, 4),
    "maximal-matching[3]": (13, 6, 2, 4, 2),
    "weak-2-coloring[3]": (176, 80, 10, 47, 9),
    "weak-2-coloring[4]": (780, 267, 11, 104, 9),
    "superweak-2-coloring[3]": (435, 171, 22, 103, 22),
    "4-coloring[2]": (452, 164, 88, 80, 88),
    "weak-3-coloring[2]": (3306, 976, 488, 240, 488),
    "superweak-3-coloring[2]": (3306, 976, 488, 240, 488),
}

_PROBE = r"""
import json
import sys

from repro.core.speedup import compute_speedup
from repro.problems.catalog import get_problem

rows = {}
for case in sys.argv[1:]:
    name, delta = case[:-1].split("[")
    result = compute_speedup(get_problem(name, int(delta)))
    stats = result.kernel_stats
    rows[case] = [
        stats.matching_calls,
        stats.configs_streamed,
        stats.frontier_peak,
        len(result.half.node_constraint),
        len(result.full.node_constraint),
    ]
print(json.dumps(rows))
"""


def _probe(seed: str) -> dict[str, tuple[int, ...]]:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *PINNED],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PYTHONHASHSEED": seed,
            "PATH": "/usr/bin:/bin",
        },
    )
    assert result.returncode == 0, result.stderr
    return {case: tuple(row) for case, row in json.loads(result.stdout).items()}


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_enumeration_counters_match_the_record(seed: str) -> None:
    assert _probe(seed) == PINNED
