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

The derived problems themselves are pinned too, as the sha256 of their
``to_dict()`` JSON, recorded before materialisation moved from numpy
matrices to Python-int adjacency rows.  The 976-label ``Pi_1`` are past
what the frozenset oracle ``tests/_legacy.py`` derives in test time, so
these digests are the only byte-level check on them.  5-coloring[2]'s
``Pi_1`` (7,577 labels, 24,808,913 pairs) is pinned through its condensed
adjacency rows, so the check never builds its string pairs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
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

#: sha256 of ``json.dumps(result.to_dict(), sort_keys=True)`` per case.
PINNED_DIGESTS: dict[str, str] = {
    "sinkless-orientation[3]": "310175f245334851ead1029cb857c38f49a0a288e201649bbdc61ec267563f25",
    "sinkless-coloring[5]": "67a9fed3973119dccc53582784af15eb0facb38fca956e585961cfd356299b08",
    "3-coloring[3]": "605022c42dda36340fc15bddf6ac237cc364fcf24bb6d7ae42aa3e72e492906e",
    "mis[3]": "1bc3d93c4ad091c421458f3120aa437d77e3e245aaa94c975760bec6d9d78246",
    "maximal-matching[3]": "b4dcdd66417c8648a7037efc4aa4b2b469c9cc9893574abf145214a9b0f5ea14",
    "weak-2-coloring[3]": "73cbe8bc5193207b997266be3709bad47a1c3bb49eb55743f86eb6e1269e4075",
    "weak-2-coloring[4]": "dcc88de35b82f7623043be307df0cd4e9f5eec9b29a874ca8bdfde9e070b315e",
    "superweak-2-coloring[3]": "853fc269039f3e04ac58c149038e87e29d720196127fa00a5bf0ec0516e8e135",
    "4-coloring[2]": "42a1a51dc1f1c4d6deae32757eea4ac7eaa279994022d8d9218fe40cb373b7fd",
    "weak-3-coloring[2]": "05a4d8ddd8dd2e5796ad815c88c184240082e2df0562063fe79a5f38e85f4449",
    "superweak-3-coloring[2]": "4b5e423d7876581766e8b34a3610d6cba77e99ccebd45e254f23bd0661e07d0b",
}

#: 5-coloring[2], digested from its condensed form (see ``_FIVE_COLORING_PROBE``).
FIVE_COLORING_DIGEST = "625716562671ac16c6bc91e87a477c356a4bcedf5e24a7c81af04437bfdc377b"

_PROBE = r"""
import hashlib
import json
import sys

from repro.core.speedup import compute_speedup
from repro.problems.catalog import get_problem

rows = {}
for case in sys.argv[1:]:
    name, delta = case[:-1].split("[")
    result = compute_speedup(get_problem(name, int(delta)))
    stats = result.kernel_stats
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    rows[case] = [
        stats.matching_calls,
        stats.configs_streamed,
        stats.frontier_peak,
        len(result.half.node_constraint),
        len(result.full.node_constraint),
        hashlib.sha256(payload).hexdigest(),
    ]
print(json.dumps(rows))
"""

_FIVE_COLORING_PROBE = r"""
import hashlib
import json

from repro.core.problem import EdgeRelation
from repro.core.speedup import compute_speedup
from repro.problems.catalog import get_problem

result = compute_speedup(get_problem("5-coloring", 2))
relation = result.full.edge_constraint
assert isinstance(relation, EdgeRelation), type(relation)
payload = json.dumps(
    {
        "half": result.half.to_dict(),
        "half_meaning": {k: sorted(v) for k, v in sorted(result.half_meaning.items())},
        "labels": list(relation.names),
        "rows": [format(row, "x") for row in relation.masks],
        "node": sorted(result.full.node_constraint),
        "full_meaning": {k: sorted(v) for k, v in sorted(result.full_meaning.items())},
    },
    sort_keys=True,
).encode()
assert relation._pairs is None, "string pairs were built"
print(json.dumps([hashlib.sha256(payload).hexdigest(), len(result.full.labels), len(relation)]))
"""


def _run(script: str, seed: str, *args: str) -> object:
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
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
    return json.loads(result.stdout)


@lru_cache(maxsize=None)
def _probe(seed: str) -> dict[str, tuple[object, ...]]:
    rows = _run(_PROBE, seed, *PINNED)
    assert isinstance(rows, dict)
    return {case: tuple(row) for case, row in rows.items()}


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_enumeration_counters_match_the_record(seed: str) -> None:
    assert {case: row[:5] for case, row in _probe(seed).items()} == PINNED


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_derived_problems_match_the_recorded_bytes(seed: str) -> None:
    assert {case: row[5] for case, row in _probe(seed).items()} == PINNED_DIGESTS


@pytest.mark.slow
def test_five_coloring_pi1_matches_the_recorded_bytes() -> None:
    assert _run(_FIVE_COLORING_PROBE, "0") == [FIVE_COLORING_DIGEST, 7577, 24808913]
