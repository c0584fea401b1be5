"""Iterated round elimination: the ``Pi, Pi_1, Pi_2, ...`` pipeline.

This module drives the workflow of Section 2.1: starting from a problem,
apply the speedup repeatedly, optionally interleaving *relaxation* steps
(each certified by a label map), watching for two terminating events:

* some ``Pi_t`` becomes 0-round solvable -- then the original problem has
  complexity at least ``t`` (exactly ``t`` on the matching high-girth
  t-independent class, by Theorem 1);
* some ``Pi_t`` is isomorphic to an earlier ``Pi_s`` with no 0-round
  solvable problem in between -- a **fixed point / cycle** (sinkless
  coloring is the paradigm, Section 4.4), which certifies that the problem
  is not solvable in any number of rounds for which the required high-girth
  t-independent class exists, i.e. an Omega(log n) lower bound on bounded
  degree classes.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any
from dataclasses import dataclass, field

from repro.core.problem import Problem
from repro.core.relaxation import RelaxationCertificate
from repro.core.zero_round import ZeroRoundWitness

# A relaxer takes (derived problem, step index) and returns the relaxed
# problem together with the certifying label map, or None to keep the
# derived problem unchanged.
Relaxer = Callable[[Problem, int], tuple[Problem, dict[str, str]] | None]


@dataclass(frozen=True)
class SequenceStep:
    """Record of one pipeline step."""

    index: int
    problem: Problem
    relaxation: RelaxationCertificate | None
    zero_round_witness: ZeroRoundWitness | None
    isomorphic_to_step: int | None

    @property
    def zero_round_solvable(self) -> bool:
        return self.zero_round_witness is not None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "index": self.index,
            "problem": self.problem.to_dict(),
            "relaxation": None if self.relaxation is None else self.relaxation.to_dict(),
            "zero_round_witness": (
                None
                if self.zero_round_witness is None
                else self.zero_round_witness.to_dict()
            ),
            "isomorphic_to_step": self.isomorphic_to_step,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SequenceStep":
        relaxation = data.get("relaxation")
        witness = data.get("zero_round_witness")
        return SequenceStep(
            index=data["index"],
            problem=Problem.from_dict(data["problem"]),
            relaxation=(
                None if relaxation is None else RelaxationCertificate.from_dict(relaxation)
            ),
            zero_round_witness=(
                None if witness is None else ZeroRoundWitness.from_dict(witness)
            ),
            isomorphic_to_step=data["isomorphic_to_step"],
        )


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of an iterated round-elimination run.

    ``steps[0]`` is the initial problem; ``steps[t]`` is the problem after
    ``t`` speedup(+relaxation) applications.  ``stopped_by_limit`` records
    that the description-complexity explosion (Section 2.1) tripped the
    engine's size guards -- the situation the relaxation technique exists
    to tame.
    """

    steps: list[SequenceStep] = field(default_factory=list)
    stopped_by_limit: bool = False

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`) -- the wire format
        emitted by ``python -m repro run --json``."""
        return {
            "steps": [step.to_dict() for step in self.steps],
            "stopped_by_limit": self.stopped_by_limit,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "EliminationResult":
        return EliminationResult(
            steps=[SequenceStep.from_dict(step) for step in data["steps"]],
            stopped_by_limit=data["stopped_by_limit"],
        )

    @property
    def first_zero_round_index(self) -> int | None:
        for step in self.steps:
            if step.zero_round_solvable:
                return step.index
        return None

    @property
    def fixed_point_index(self) -> int | None:
        """Index of the first step isomorphic to an earlier one, if any."""
        for step in self.steps:
            if step.isomorphic_to_step is not None:
                return step.index
        return None

    @property
    def lower_bound(self) -> int:
        """A certified round lower bound for the initial problem.

        If no problem in the computed prefix is 0-round solvable, every
        computed step certifies one more round (given girth/t-independence),
        so the bound is the number of speedup steps performed.  If step ``t``
        is the first 0-round solvable problem, the bound is ``t``.
        """
        first = self.first_zero_round_index
        if first is not None:
            return first
        return len(self.steps) - 1

    @property
    def unbounded(self) -> bool:
        """True iff a fixed point was found with no 0-round solvable problem.

        In that case the lower bound grows with the maximal ``t`` for which a
        girth-(2t+2) t-independent class exists -- Omega(log n) on bounded
        degree graphs (Section 4.4).
        """
        return (
            self.fixed_point_index is not None
            and self.first_zero_round_index is None
        )

    def summary(self) -> str:
        lines = []
        for step in self.steps:
            tags = []
            if step.relaxation is not None:
                tags.append(f"relaxed->{step.relaxation.target_name}")
            if step.zero_round_solvable:
                tags.append("0-round")
            if step.isomorphic_to_step is not None:
                tags.append(f"iso-to-step-{step.isomorphic_to_step}")
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            lines.append(
                f"step {step.index}: {step.problem.name} "
                f"(labels={len(step.problem.labels)}, "
                f"node={len(step.problem.node_constraint)}, "
                f"edge={len(step.problem.edge_constraint)}){suffix}"
            )
        if self.unbounded:
            lines.append(
                "fixed point with no 0-round solvable problem: "
                "Omega(log n) lower bound on bounded-degree high-girth classes"
            )
        else:
            lines.append(f"certified lower bound: {self.lower_bound} rounds")
        if self.stopped_by_limit:
            lines.append(
                "stopped by description-size limits (Section 2.1's explosion); "
                "apply a relaxation to continue"
            )
        return "\n".join(lines)


def run_round_elimination(
    problem: Problem,
    max_steps: int,
    relaxer: Relaxer | None = None,
    orientations: bool = True,
    simplify: bool = True,
    detect_fixed_points: bool = True,
    stop_at_zero_round: bool = True,
    *,
    max_derived_labels: int | None = None,
    max_candidate_configs: int | None = None,
    max_live_configs: int | None = None,
) -> EliminationResult:
    """Run the iterated speedup pipeline.

    Parameters
    ----------
    problem:
        The initial problem ``Pi``.
    max_steps:
        Maximum number of speedup applications.
    relaxer:
        Optional hook applied after each speedup; must return the relaxed
        problem and the label map certifying it (the map is re-verified
        here -- an invalid relaxation raises).
    orientations:
        Whether 0-round solvability is tested in the orientation-input
        setting (the Theorem 2 setting) or with no input at all.
    simplify:
        Use the maximality-simplified derivation (Theorem 2).
    detect_fixed_points:
        Test each new problem for isomorphism against all previous ones.
    stop_at_zero_round:
        Stop as soon as a 0-round solvable problem appears.
    max_derived_labels / max_candidate_configs / max_live_configs:
        Optional :class:`repro.engine.EngineConfig` overrides for the
        pipeline's derivations (``None`` keeps the default engine's
        values).  Explicit ceilings matter more since the streaming full
        step retired the a-priori grid refusal: a blown-up step is now
        *computed* up to the work and frontier caps rather than refused
        from a size prediction, so towers expected to explode should pick
        ceilings matched to the description sizes they can afford.

    Compatibility shim: delegates to the process-wide default
    :class:`repro.engine.Engine` (re-configured with these flags but sharing
    its derivation cache), so pipelines inherit content-addressed
    memoisation and the once-per-step compression of fixed-point detection.
    Use :meth:`repro.engine.Engine.iter_elimination` directly for streaming
    access to the steps.
    """
    from repro.engine import get_default_engine

    overrides: dict[str, object] = {
        "orientations": orientations,
        "simplify": simplify,
        "detect_fixed_points": detect_fixed_points,
        "stop_at_zero_round": stop_at_zero_round,
    }
    for name, value in (
        ("max_derived_labels", max_derived_labels),
        ("max_candidate_configs", max_candidate_configs),
        ("max_live_configs", max_live_configs),
    ):
        if value is not None:
            overrides[name] = value
    engine = get_default_engine().with_config(**overrides)
    return engine.run(problem, max_steps, relaxer=relaxer)
