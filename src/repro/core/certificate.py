"""Machine-checkable lower-bound certificates: speedup/relaxation chains.

A round-elimination lower bound (the Section 2.1 workflow, automated by the
paper's speedup theorem) is a *chain*: starting from ``Pi``, each step is
either

* a **speedup** step ``Q -> Q_1`` (justified by Theorem 1/2 and re-derivable
  from scratch), recorded as the full provenance-carrying
  :class:`~repro.core.speedup.SpeedupResult`, or
* a **relaxation** step ``Q -> Q'`` (``Q'`` provably no harder), recorded as
  the :class:`~repro.core.relaxation.RelaxationCertificate` label map that
  certifies it.

Two terminal events turn a chain into a proof:

* ``zero-round-unsolvable`` -- after ``t`` speedup steps the final problem is
  not 0-round solvable, so ``Pi`` is not solvable in ``t`` rounds on the
  matching girth-restricted, t-independent class;
* ``fixed-point`` -- the final problem is isomorphic to an earlier chain
  problem with at least one speedup step in between and no 0-round solvable
  problem anywhere in the chain, so the chain can be pumped: ``Pi`` is not
  solvable in ``t`` rounds for *any* ``t`` for which the required class
  exists -- the Omega(log n) bound on bounded-degree graphs (Section 4.4).

:meth:`LowerBoundCertificate.verify` re-checks every step from scratch --
speedups are re-derived with the uncached
:func:`~repro.core.speedup.compute_speedup`, relaxation maps re-validated,
terminal conditions re-decided -- so a certificate deserialized from JSON is
a self-contained, independently auditable proof object (the format the
Bastide-Fraigniaud extension of round elimination argues for).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from dataclasses import dataclass

from repro.core.alphabet import set_label_name
from repro.core.isomorphism import find_isomorphism
from repro.core.problem import Problem, ProblemError
from repro.core.relaxation import (
    HARDENS,
    RELAXES,
    RelaxationCertificate,
    is_harder_restriction,
    is_relaxation_map,
)
from repro.core.speedup import (
    MAX_CANDIDATE_CONFIGS,
    MAX_DERIVED_LABELS,
    EngineLimitError,
    SpeedupResult,
    compute_speedup,
)
from repro.core.zero_round import (
    ZeroRoundWitness,
    check_zero_round_witness,
    is_zero_round_solvable,
)

SPEEDUP = "speedup"
RELAXATION = "relaxation"
HARDENING = "hardening"

TERMINAL_UNSOLVABLE = "zero-round-unsolvable"
TERMINAL_FIXED_POINT = "fixed-point"


class CertificateError(ValueError):
    """Raised when a certificate (or its payload) is malformed."""


@dataclass(frozen=True)
class CertificateStep:
    """One chain step: the resulting problem plus its justification.

    Exactly one of ``speedup`` / ``relaxation`` is set, matching ``kind``.
    For speedup steps ``problem`` is the derived ``SpeedupResult.full``; for
    relaxation steps it is the relaxation target (the certificate's label map
    alone does not pin the target problem down, so it is stored explicitly).
    Hardening steps (upper-bound chains only) carry the restriction's
    :class:`~repro.core.relaxation.RelaxationCertificate` in ``relaxation``
    like relaxation steps do -- ``kind`` disambiguates the claimed direction.
    """

    kind: str
    problem: Problem
    speedup: SpeedupResult | None = None
    relaxation: RelaxationCertificate | None = None

    def __post_init__(self) -> None:
        if self.kind == SPEEDUP:
            if self.speedup is None or self.relaxation is not None:
                raise CertificateError("speedup step must carry exactly a SpeedupResult")
            if self.speedup.full != self.problem:
                raise CertificateError(
                    "speedup step problem does not match the derived result"
                )
        elif self.kind in (RELAXATION, HARDENING):
            if self.relaxation is None or self.speedup is not None:
                raise CertificateError(
                    f"{self.kind} step must carry exactly a RelaxationCertificate"
                )
        else:
            raise CertificateError(f"unknown step kind {self.kind!r}")

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        if self.kind == SPEEDUP:
            assert self.speedup is not None
            return {"kind": SPEEDUP, "speedup": self.speedup.to_dict()}
        assert self.relaxation is not None
        return {
            "kind": self.kind,
            "problem": self.problem.to_dict(),
            "relaxation": self.relaxation.to_dict(),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CertificateStep":
        try:
            kind = data["kind"]
            if kind == SPEEDUP:
                result = SpeedupResult.from_dict(data["speedup"])
                return CertificateStep(kind=SPEEDUP, problem=result.full, speedup=result)
            if kind in (RELAXATION, HARDENING):
                return CertificateStep(
                    kind=kind,
                    problem=Problem.from_dict(data["problem"]),
                    relaxation=RelaxationCertificate.from_dict(data["relaxation"]),
                )
            raise CertificateError(f"unknown step kind {kind!r}")
        except CertificateError:
            raise
        except (KeyError, TypeError, AttributeError, ProblemError, ValueError) as exc:
            raise CertificateError(f"malformed certificate step: {exc!r}") from exc


def _structured_form(result: SpeedupResult) -> Problem:
    """The derived problem with its set-valued names restored from the meanings.

    Every result this library produces -- fresh derivations and
    renaming-translated cache hits alike -- satisfies ``full ==
    structured.renamed(short names)`` with the structured labels being the
    canonical set names of the ``full_meaning`` entries.  Rebuilding the
    structured form therefore erases the one degree of freedom two honest
    derivations of the same problem can differ in (the arbitrary short
    names), while pinning everything else: tampering with ``full``, with
    ``full_meaning``, or with their correspondence changes the rebuilt form.
    Raises ``ProblemError`` when the recorded meanings cannot even rename the
    problem (non-injective or incomplete -- already proof of tampering).
    """
    rename = {
        label: set_label_name(result.full_meaning[label])
        for label in result.full.labels
    }
    return result.full.renamed(rename, name="structured")


def _check_speedup_step(
    index: int,
    step: CertificateStep,
    current: Problem,
    max_derived_labels: int,
    max_candidate_configs: int,
) -> list[str]:
    """Re-derive a speedup step (uncached) and compare it with the recorded one.

    The half step and its meanings must match *exactly* (the derivation is
    deterministic and cache translation reproduces the very same names); the
    full problem may differ only in its arbitrary short label names, which
    the structured-form comparison quotients out.  Everything else --
    constraints, meanings, and the pairing between them -- is pinned, so a
    certificate cannot smuggle in a forged derivation or forged provenance.
    """
    recorded = step.speedup
    assert recorded is not None
    if recorded.original != current:
        return [
            f"step {index}: speedup does not apply to the chain's "
            f"current problem ({recorded.original.name!r} vs "
            f"{current.name!r})"
        ]
    try:
        fresh = compute_speedup(
            current,
            simplify=recorded.simplified,
            max_derived_labels=max_derived_labels,
            max_candidate_configs=max_candidate_configs,
        )
    except EngineLimitError as exc:
        return [f"step {index}: could not re-derive: {exc}"]
    failures: list[str] = []
    if recorded.half != fresh.half or dict(recorded.half_meaning) != dict(
        fresh.half_meaning
    ):
        failures.append(
            f"step {index}: recorded half step does not match the re-derived one"
        )
    if set(recorded.full_meaning) != set(recorded.full.labels):
        failures.append(
            f"step {index}: full_meaning keys do not cover the derived labels"
        )
        return failures
    try:
        recorded_structured = _structured_form(recorded)
    except ProblemError:
        failures.append(
            f"step {index}: recorded full_meaning does not consistently "
            f"name the derived problem"
        )
        return failures
    if recorded_structured != _structured_form(fresh):
        failures.append(
            f"step {index}: re-derived speedup result does not match the "
            f"certified problem"
        )
    return failures


def _check_link(
    index: int, step: CertificateStep, source: Problem, direction: str
) -> list[str]:
    """A relaxed/hardened link must certify in ``direction`` and name both ends."""
    certificate = step.relaxation
    assert certificate is not None
    failures: list[str] = []
    if certificate.direction != direction:
        failures.append(
            f"step {index}: a {certificate.direction!r} certificate "
            f"cannot justify a {step.kind} step"
        )
    target = step.problem
    if (certificate.source_name, certificate.target_name) != (source.name, target.name):
        failures.append(
            f"step {index}: certificate endpoints ({certificate.source_name!r} -> "
            f"{certificate.target_name!r}) do not name the chain's problems "
            f"({source.name!r} -> {target.name!r})"
        )
    return failures


@dataclass(frozen=True)
class CertificateCheck:
    """The verdict of re-verifying a certificate from scratch."""

    valid: bool
    failures: tuple[str, ...]
    bound: int
    unbounded: bool = False


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A full chain from ``initial`` to a terminal proving a lower bound.

    ``steps[i]`` transforms chain position ``i`` into position ``i + 1``
    (position 0 is ``initial``).  ``terminal`` names the claimed ending:
    :data:`TERMINAL_UNSOLVABLE` (the final problem is not 0-round solvable;
    the bound is the number of speedup steps) or :data:`TERMINAL_FIXED_POINT`
    (the final problem revisits chain position ``fixed_point_of``, making the
    chain pumpable -- the unbounded / Omega(log n) outcome).
    ``orientations`` fixes the 0-round input setting the claim is made in
    (Theorem 2's edge-orientation setting by default).
    """

    initial: Problem
    steps: tuple[CertificateStep, ...] = ()
    terminal: str = TERMINAL_UNSOLVABLE
    fixed_point_of: int | None = None
    orientations: bool = True

    def __post_init__(self) -> None:
        if self.terminal not in (TERMINAL_UNSOLVABLE, TERMINAL_FIXED_POINT):
            raise CertificateError(f"unknown terminal {self.terminal!r}")
        if self.fixed_point_of is not None and (
            not isinstance(self.fixed_point_of, int)
            or isinstance(self.fixed_point_of, bool)
        ):
            raise CertificateError(
                f"fixed_point_of must be an integer chain position, "
                f"not {self.fixed_point_of!r}"
            )
        if self.terminal == TERMINAL_FIXED_POINT and self.fixed_point_of is None:
            raise CertificateError("fixed-point certificate needs fixed_point_of")

    # -- chain accessors -----------------------------------------------------

    @property
    def chain(self) -> tuple[Problem, ...]:
        """Every problem along the chain; ``chain[0]`` is ``initial``."""
        return (self.initial,) + tuple(step.problem for step in self.steps)

    @property
    def final_problem(self) -> Problem:
        return self.chain[-1]

    @property
    def speedup_steps(self) -> int:
        return sum(1 for step in self.steps if step.kind == SPEEDUP)

    @property
    def claimed_bound(self) -> int:
        """The chain claims ``initial`` is not solvable in this many rounds."""
        return self.speedup_steps

    @property
    def unbounded(self) -> bool:
        """True iff the chain claims the pumpable fixed-point outcome."""
        return self.terminal == TERMINAL_FIXED_POINT

    # -- verification --------------------------------------------------------

    def verify(
        self,
        *,
        max_derived_labels: int = MAX_DERIVED_LABELS,
        max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
    ) -> CertificateCheck:
        """Re-check every step and the terminal claim, independent of any search.

        Speedup steps are re-derived with the uncached
        :func:`~repro.core.speedup.compute_speedup` and compared against the
        recorded result including its provenance: the half step and both
        meaning maps must match the re-derivation exactly, and the full
        problem up to its arbitrary short label names (via the rebuilt
        structured form), so forged derivations *and* forged meanings are
        rejected.  Relaxation maps are re-validated against both endpoints,
        must name them, and must certify in the relaxation direction (a
        hardening certificate cannot justify a lower-bound step).  The
        terminal condition is re-decided with the 0-round procedures and the
        isomorphism test.
        """
        failures: list[str] = []
        current = self.initial
        for index, step in enumerate(self.steps):
            if step.kind == SPEEDUP:
                failures.extend(
                    _check_speedup_step(
                        index, step, current, max_derived_labels, max_candidate_configs
                    )
                )
            elif step.kind == HARDENING:
                # A restriction can make the problem strictly harder; it can
                # never justify "no harder", regardless of what direction the
                # attached certificate claims.
                failures.append(
                    f"step {index}: a hardening step cannot appear in a "
                    f"lower-bound chain"
                )
            else:
                failures.extend(_check_link(index, step, current, RELAXES))
                certificate = step.relaxation
                assert certificate is not None
                if not is_relaxation_map(current, step.problem, certificate.mapping):
                    failures.append(
                        f"step {index}: label map does not certify "
                        f"{step.problem.name!r} as a relaxation of {current.name!r}"
                    )
            current = step.problem

        failures.extend(self._check_terminal())
        valid = not failures
        return CertificateCheck(
            valid=valid,
            failures=tuple(failures),
            bound=self.claimed_bound if valid else 0,
            unbounded=valid and self.unbounded,
        )

    def _check_terminal(self) -> list[str]:
        failures: list[str] = []
        chain = self.chain
        if self.terminal == TERMINAL_UNSOLVABLE:
            if is_zero_round_solvable(chain[-1], orientations=self.orientations):
                failures.append(
                    "final problem is 0-round solvable; chain proves nothing"
                )
            return failures
        j = self.fixed_point_of
        if j is None or not 0 <= j < len(chain) - 1:
            failures.append(f"fixed_point_of={j!r} is not an earlier chain position")
            return failures
        if find_isomorphism(chain[-1].compressed(), chain[j].compressed()) is None:
            failures.append(
                f"final problem is not isomorphic to chain position {j}"
            )
        if not any(step.kind == SPEEDUP for step in self.steps[j:]):
            failures.append(
                f"no speedup step between chain position {j} and the end; "
                "the cycle eliminates no rounds"
            )
        for position, problem in enumerate(chain):
            if is_zero_round_solvable(problem, orientations=self.orientations):
                failures.append(
                    f"chain position {position} is 0-round solvable; "
                    "the cycle cannot be pumped"
                )
        return failures

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`); see docs/API.md."""
        return {
            "version": 1,
            "initial": self.initial.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
            "terminal": self.terminal,
            "fixed_point_of": self.fixed_point_of,
            "orientations": self.orientations,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "LowerBoundCertificate":
        """Rebuild a certificate; raises :class:`CertificateError` when malformed."""
        try:
            return LowerBoundCertificate(
                initial=Problem.from_dict(data["initial"]),
                steps=tuple(
                    CertificateStep.from_dict(step) for step in data["steps"]
                ),
                terminal=data["terminal"],
                fixed_point_of=data["fixed_point_of"],
                orientations=bool(data["orientations"]),
            )
        except CertificateError:
            raise
        except (KeyError, TypeError, AttributeError, ProblemError, ValueError) as exc:
            raise CertificateError(f"malformed certificate payload: {exc!r}") from exc

    # -- presentation ----------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable rendering of the chain and its claim."""
        setting = "edge-orientations" if self.orientations else "no-input"
        lines = [
            f"lower-bound certificate for {self.initial.name} ({setting} setting)"
        ]
        for position, problem in enumerate(self.chain):
            if position == 0:
                how = "initial"
            else:
                step = self.steps[position - 1]
                if step.kind == SPEEDUP:
                    how = "speedup"
                else:
                    assert step.relaxation is not None
                    how = f"relax via {len(step.relaxation.mapping)}-label map"
            lines.append(
                f"  {position}: {problem.name} "
                f"(labels={len(problem.labels)}, "
                f"node={len(problem.node_constraint)}, "
                f"edge={len(problem.edge_constraint)})  [{how}]"
            )
        if self.unbounded:
            lines.append(
                f"terminal: final problem revisits position {self.fixed_point_of} "
                "(pumpable fixed point) => Omega(log n) on bounded-degree "
                "high-girth classes"
            )
        else:
            lines.append(
                f"terminal: final problem not 0-round solvable => "
                f"{self.initial.name} is not solvable in "
                f"{self.claimed_bound} round(s)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class UpperBoundCertificate:
    """A chain from ``initial`` to a 0-round-solvable problem: an upper bound.

    The speedup theorem read forwards: if ``speedup(Q)`` is solvable in
    ``t - 1`` rounds then ``Q`` is solvable in ``t``, so a chain of ``k``
    speedup steps ending in a 0-round-solvable problem gives a concrete
    ``k``-round algorithm for ``initial``.  Hardening steps (``Q -> Q'``
    with ``Q'`` a restriction of ``Q``; Section 4.5's ``harden`` moves) may
    be interleaved for description control: any algorithm for the restricted
    ``Q'`` solves ``Q`` verbatim, so they cost no rounds -- only speedup
    steps count toward :attr:`claimed_rounds`.

    The terminal is not a bare flag but a recorded
    :class:`~repro.core.zero_round.ZeroRoundWitness`: the actual 0-round
    algorithm for the final problem, which :meth:`verify` re-checks field by
    field (:func:`~repro.core.zero_round.check_zero_round_witness`) rather
    than re-deciding solvability -- the certificate ships the algorithm, not
    just the claim, which is what the cross-validation suite executes on
    port-numbered trees.
    """

    initial: Problem
    witness: ZeroRoundWitness
    steps: tuple[CertificateStep, ...] = ()
    orientations: bool = True

    def __post_init__(self) -> None:
        for index, step in enumerate(self.steps):
            if step.kind not in (SPEEDUP, HARDENING):
                raise CertificateError(
                    f"step {index}: {step.kind!r} steps cannot appear in an "
                    f"upper-bound chain"
                )

    # -- chain accessors -----------------------------------------------------

    @property
    def chain(self) -> tuple[Problem, ...]:
        """Every problem along the chain; ``chain[0]`` is ``initial``."""
        return (self.initial,) + tuple(step.problem for step in self.steps)

    @property
    def final_problem(self) -> Problem:
        return self.chain[-1]

    @property
    def speedup_steps(self) -> int:
        return sum(1 for step in self.steps if step.kind == SPEEDUP)

    @property
    def claimed_rounds(self) -> int:
        """The chain claims ``initial`` is solvable in this many rounds."""
        return self.speedup_steps

    # -- verification --------------------------------------------------------

    def verify(
        self,
        *,
        max_derived_labels: int = MAX_DERIVED_LABELS,
        max_candidate_configs: int = MAX_CANDIDATE_CONFIGS,
    ) -> CertificateCheck:
        """Re-check every link and the terminal witness, independent of any search.

        Speedup steps get the same treatment as in
        :meth:`LowerBoundCertificate.verify`: re-derived from scratch and
        compared including provenance.  Hardening steps must certify in the
        hardening direction, name both endpoints, carry the identity label
        map on the restricted problem, and the restriction itself is
        re-checked structurally
        (:func:`~repro.core.relaxation.is_harder_restriction`).  The terminal
        witness is re-validated as an actual 0-round algorithm for the final
        problem in the claimed input setting.  ``bound`` in the returned
        check is the certified number of rounds (0 is meaningful: the
        initial problem itself is 0-round solvable).
        """
        failures: list[str] = []
        current = self.initial
        for index, step in enumerate(self.steps):
            if step.kind == SPEEDUP:
                failures.extend(
                    _check_speedup_step(
                        index, step, current, max_derived_labels, max_candidate_configs
                    )
                )
            else:
                failures.extend(_check_link(index, step, current, HARDENS))
                certificate = step.relaxation
                assert certificate is not None
                if dict(certificate.mapping) != {
                    label: label for label in step.problem.labels
                }:
                    failures.append(
                        f"step {index}: a hardening must carry the identity "
                        f"map on the restricted problem's labels"
                    )
                if not is_harder_restriction(current, step.problem):
                    failures.append(
                        f"step {index}: {step.problem.name!r} is not a "
                        f"restriction of {current.name!r}"
                    )
            current = step.problem

        failures.extend(
            f"terminal: {failure}"
            for failure in check_zero_round_witness(
                current, self.witness, orientations=self.orientations
            )
        )
        valid = not failures
        return CertificateCheck(
            valid=valid,
            failures=tuple(failures),
            bound=self.claimed_rounds if valid else 0,
            unbounded=False,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (inverse of :meth:`from_dict`); see docs/API.md."""
        return {
            "version": 1,
            "initial": self.initial.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
            "witness": self.witness.to_dict(),
            "orientations": self.orientations,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "UpperBoundCertificate":
        """Rebuild a certificate; raises :class:`CertificateError` when malformed."""
        try:
            return UpperBoundCertificate(
                initial=Problem.from_dict(data["initial"]),
                witness=ZeroRoundWitness.from_dict(data["witness"]),
                steps=tuple(
                    CertificateStep.from_dict(step) for step in data["steps"]
                ),
                orientations=bool(data["orientations"]),
            )
        except CertificateError:
            raise
        except (KeyError, TypeError, AttributeError, ProblemError, ValueError) as exc:
            raise CertificateError(f"malformed certificate payload: {exc!r}") from exc

    # -- presentation ----------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable rendering of the chain and its claim."""
        setting = "edge-orientations" if self.orientations else "no-input"
        lines = [
            f"upper-bound certificate for {self.initial.name} ({setting} setting)"
        ]
        for position, problem in enumerate(self.chain):
            if position == 0:
                how = "initial"
            else:
                step = self.steps[position - 1]
                if step.kind == SPEEDUP:
                    how = "speedup"
                else:
                    how = "harden (restriction)"
            lines.append(
                f"  {position}: {problem.name} "
                f"(labels={len(problem.labels)}, "
                f"node={len(problem.node_constraint)}, "
                f"edge={len(problem.edge_constraint)})  [{how}]"
            )
        lines.append(
            f"terminal: final problem 0-round solvable (witness recorded) => "
            f"{self.initial.name} is solvable in "
            f"{self.claimed_rounds} round(s)"
        )
        return "\n".join(lines)
