"""Description-complexity growth under iterated speedup (Section 2.1's motivation).

"In general, the description of an inferred problem Pi_i is much more complex
than the description of the original problem.  In fact, dealing with this
explosion in complexity is one of the main challenges in applying our
speedup."  This module measures that explosion: it iterates the speedup on a
problem, recording the alphabet and constraint sizes per step, stopping
cleanly when the engine's size guards trip (which is itself the documented
finding).  Fixed points (sinkless coloring) show the opposite regime --
constant-size descriptions forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import Problem
from repro.core.speedup import (
    MAX_CANDIDATE_CONFIGS,
    MAX_DERIVED_LABELS,
    MAX_LIVE_CONFIGS,
    EngineLimitError,
    compute_speedup,
)


@dataclass(frozen=True)
class GrowthRow:
    """Description metrics of one problem in an iterated-speedup sequence."""

    step: int
    labels: int
    edge_configs: int
    node_configs: int
    description_size: int
    blew_up: bool = False


def measure_growth(
    problem: Problem,
    steps: int,
    simplify: bool = True,
    *,
    max_derived_labels: int = MAX_DERIVED_LABELS,
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
    max_live_configs: int = MAX_LIVE_CONFIGS,
) -> list[GrowthRow]:
    """Iterate the speedup up to ``steps`` times, recording sizes per step.

    If a step exceeds the limits, a final row with ``blew_up=True`` is
    appended and the iteration stops -- the explosion the relaxation
    technique exists to tame.  The limits are explicit parameters because
    they *are* the measurement instrument here: since the streaming full
    step retired the a-priori grid refusal, detecting a blow-up under the
    default caps can mean minutes of real derivation work (the engine
    computes multi-thousand-label steps it used to refuse outright), so
    explosion studies should pick ceilings matched to the description sizes
    they consider "blown up".
    """
    rows = [
        GrowthRow(
            step=0,
            labels=len(problem.labels),
            edge_configs=len(problem.edge_constraint),
            node_configs=len(problem.node_constraint),
            description_size=problem.description_size,
        )
    ]
    current = problem
    for step in range(1, steps + 1):
        try:
            current = compute_speedup(
                current,
                simplify=simplify,
                max_derived_labels=max_derived_labels,
                max_candidate_configs=max_candidate_configs,
                max_live_configs=max_live_configs,
            ).full
        except EngineLimitError:
            rows.append(
                GrowthRow(
                    step=step,
                    labels=0,
                    edge_configs=0,
                    node_configs=0,
                    description_size=0,
                    blew_up=True,
                )
            )
            break
        rows.append(
            GrowthRow(
                step=step,
                labels=len(current.labels),
                edge_configs=len(current.edge_constraint),
                node_configs=len(current.node_constraint),
                description_size=current.description_size,
            )
        )
    return rows
