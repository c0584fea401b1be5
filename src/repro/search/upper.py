"""The upper-bound chase behind ``Engine.search_upper_bound``.

The speedup theorem read forwards: ``Pi`` is solvable in ``t`` rounds iff
``speedup(Pi)`` is solvable in ``t - 1`` (Theorem 2), so driving a chain of
speedup steps into a 0-round-solvable problem certifies a concrete
``k``-round algorithm for the start -- the direction the lower-bound search
(:mod:`repro.search.driver`) never explores.  A chase *state* is a partial
:class:`~repro.core.certificate.UpperBoundCertificate`: the chain of
problems reached so far and the steps that produced it.  Each round expands
every beam state by speeding up the state's problem *and* each of its
Section-4.5 ``harden`` restrictions (:func:`~repro.search.moves.
generate_hardenings`), fanned out over the engine's worker pool as
:class:`~repro.engine.executor.ChaseTask` items:

* a derived problem that is 0-round solvable ends the chase immediately:
  its witness (the actual 0-round algorithm, recomputed on the uncompressed
  problem) becomes the certificate's terminal and the chain certifies
  ``initial`` solvable in (number of speedup steps) rounds;
* hardened problems themselves are **never** 0-round checked: a restriction
  ``Q' subset Q`` can only lose witnesses (any witness of ``Q'`` is
  verbatim one of ``Q``, its configurations being a subset), so once the
  chain's current problem is known unsolvable every hardening of it is
  too.  Hardenings buy description control -- a smaller, more symmetric
  problem whose *speedup* may collapse -- at zero soundness risk and zero
  round cost (an algorithm for the restriction solves the original
  verbatim);
* surviving candidates are deduplicated by canonical hash against
  everything seen on any branch (unlike the lower-bound search, revisiting
  a problem can never help here: the chain records no terminal until a
  solvable problem appears, so a cycle is pure waste) and scored by
  description size; the best ``beam_width`` become the next beam.

The chase is budgeted in speedup derivations like the lower-bound search,
with one difference forced by the fan-out shape: every expanded state costs
``1 + #hardenings`` derivations, charged as its options are consumed, while
the remaining budget only caps how many states a depth expands.  A depth may
therefore overshoot the budget by up to the sum of the hardening counts of
the states it expanded, i.e. by at most ``states x max_hardenings``.

Verification does not trust any of this: the emitted certificate re-derives
every speedup, re-checks every hardening's restriction structurally, and
re-validates the terminal witness as an algorithm
(:meth:`~repro.core.certificate.UpperBoundCertificate.verify`).

The depth loop and the checkpoint/resume machinery are shared with the
lower-bound search (:mod:`repro.search.beam`); this module holds only the
direction policy.  ``checkpoint=True`` writes ``chase_``-prefixed files next to the
lower search's, and ``resume=True`` continues an interrupted chase to the
byte-identical certificate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.engine import Engine

from repro.core.canonical import canonical_hash
from repro.core.certificate import (
    HARDENING,
    SPEEDUP,
    CertificateStep,
    UpperBoundCertificate,
)
from repro.core.problem import Problem
from repro.core.speedup import EngineLimitError
from repro.core.zero_round import zero_round_no_input, zero_round_with_orientations
from repro.engine.engine import get_default_engine
from repro.engine.executor import ChaseOption, ChasePayload, ChaseTask
from repro.search.beam import BeamPolicy, BeamState, beam_search
from repro.search.moves import RelaxationMove, generate_hardenings

KIND_UPPER_BOUND = "upper-bound"
KIND_EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class ChaseStats:
    """Bookkeeping of one chase run (for reports and budget tuning)."""

    speedup_calls: int = 0
    states_expanded: int = 0
    candidates_generated: int = 0
    duplicates_pruned: int = 0
    hardenings_generated: int = 0
    limit_hits: int = 0
    zero_round_checks: int = 0
    zero_round_memo_hits: int = 0
    task_failures: int = 0

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ChaseResult:
    """Outcome of an automated upper-bound chase.

    ``kind`` is ``"upper-bound"`` (a 0-round-solvable problem was reached;
    ``certificate`` carries the chain and its terminal witness) or
    ``"exhausted"`` (no solvable problem within the depth/budget/size caps;
    ``certificate`` is None -- the chase proves nothing, it just ran out).
    """

    problem: Problem
    kind: str
    certificate: UpperBoundCertificate | None
    stats: ChaseStats

    @property
    def rounds(self) -> int | None:
        """Rounds the problem is certified solvable in (None when exhausted)."""
        if self.certificate is None:
            return None
        return self.certificate.claimed_rounds

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form -- the upper half of ``python -m repro classify``."""
        return {
            "problem": self.problem.to_dict(),
            "kind": self.kind,
            "rounds": self.rounds,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
            "stats": self.stats.to_dict(),
        }

    def summary(self) -> str:
        lines = [f"chase over {self.problem.name}: {self.kind}"]
        if self.certificate is not None:
            lines.append(
                f"certified: solvable in {self.certificate.claimed_rounds} "
                f"round(s) ({len(self.certificate.steps)} chain step(s))"
            )
        else:
            lines.append(
                "no 0-round-solvable problem reached within the caps; "
                "no upper bound certified"
            )
        stats = self.stats
        lines.append(
            f"explored: {stats.speedup_calls} speedup(s), "
            f"{stats.candidates_generated} candidate(s), "
            f"{stats.hardenings_generated} hardening(s), "
            f"{stats.duplicates_pruned} duplicate(s) pruned, "
            f"{stats.limit_hits} size-limit hit(s)"
        )
        return "\n".join(lines)


def execute_chase_task(engine: Engine, task: ChaseTask) -> ChasePayload:
    """Run one chase expansion: hardenings, speedups, 0-round decisions.

    The backend-side half of the chase (:class:`~repro.engine.executor.
    ChaseTask`): the state's own problem and each hardening restriction get
    one speedup derivation, and every successfully *derived* problem's
    compressed form gets its canonical hash and a memoised 0-round decision
    (:meth:`~repro.engine.engine.Engine.zero_round_verdict`), as in
    :func:`repro.search.driver.execute_expand_task`.  Size-guard trips come
    back as per-option ``limit_hit`` records (the other options of the same
    expansion are unaffected -- a hardened target can blow past the caps its
    sibling stays under).
    """
    moves = generate_hardenings(task.problem, max_moves=task.max_hardenings)

    def evaluate(move: RelaxationMove | None) -> ChaseOption:
        target = task.problem if move is None else move.target
        try:
            result = engine.speedup(target)
        except EngineLimitError:
            return ChaseOption(
                move, None, limit_hit=True, key="", solvable=False, memo_hit=False
            )
        compressed = result.full.compressed()
        key = canonical_hash(compressed)
        solvable, memo_hit = engine.zero_round_verdict(compressed)
        return ChaseOption(
            move, result, limit_hit=False, key=key, solvable=solvable, memo_hit=memo_hit
        )

    options = (evaluate(None), *(evaluate(move) for move in moves))
    return ChasePayload(options=options, hardenings_generated=len(moves))


class _UpperBound(BeamPolicy[ChaseResult]):
    """The upper-bound direction: stop at a witnessed 0-round-solvable problem."""

    prefix = "chase"
    fanout_name = "max_hardenings"
    charge_at_dispatch = False
    prunes_revisits = True
    stat_names = tuple(field.name for field in fields(ChaseStats))

    def _result(
        self, kind: str, certificate: UpperBoundCertificate | None = None
    ) -> ChaseResult:
        stats = ChaseStats(**self.counters.counts())
        return ChaseResult(self.problem, kind, certificate, stats)

    def _certified(self, state: BeamState) -> ChaseResult | None:
        """The upper bound for a chain ending in a solvable problem, if witnessed.

        The witness is always recomputed by the witness-producing procedures
        on the *uncompressed* problem (the certificate's terminal must name
        and solve the chain's real final problem).  None against a memoised
        "solvable" verdict means the memo was wrong (a poisoned shared cache
        file); the caller must then treat the candidate as unsolvable -- the
        chase may lose a bound but can never emit a certificate it cannot
        witness.
        """
        orientations = self.engine.config.orientations
        find = zero_round_with_orientations if orientations else zero_round_no_input
        witness = find(state.problem)
        if witness is None:
            return None
        certificate = UpperBoundCertificate(
            self.problem, witness, state.steps, orientations
        )
        return self._result(KIND_UPPER_BOUND, certificate)

    def root_result(self, root: BeamState, compressed: Problem) -> ChaseResult | None:
        # The root check is the witness computation itself: a solvable root
        # is a 0-step certificate, and the witness must exist for the
        # uncompressed problem anyway.  The boolean still lands in the shared
        # memo so later searches reuse it.
        self.counters.add("zero_round_checks")
        outcome = self._certified(root)
        memo = self.engine.zero_round_memo
        if memo is not None:
            orientations = self.engine.config.orientations
            memo.store(memo.key_for(compressed, orientations), outcome is not None)
        return outcome

    def task(self, state: BeamState) -> ChaseTask:
        return ChaseTask(state.problem, max_hardenings=self.fanout)

    def consume(
        self, state: BeamState, payload: object, offer: Callable[[BeamState], None]
    ) -> ChaseResult | None:
        assert isinstance(payload, ChasePayload)
        counters = self.counters
        counters.add("hardenings_generated", payload.hardenings_generated)
        for option in payload.options:
            counters.add("speedup_calls")
            if option.limit_hit or option.result is None:
                counters.add("limit_hits")
                continue
            counters.add("candidates_generated")
            counters.add_zero_round(option.memo_hit)
            move, derived = option.move, option.result.full
            steps: tuple[CertificateStep, ...] = (
                CertificateStep(kind=SPEEDUP, problem=derived, speedup=option.result),
            )
            if move is not None:
                hardening = CertificateStep(
                    kind=HARDENING, problem=move.target, relaxation=move.certificate()
                )
                steps = (hardening,) + steps
            candidate = state.extend(steps, option.key)
            if not option.solvable:
                offer(candidate)
                continue
            outcome = self._certified(candidate)
            if outcome is not None:
                return outcome
            # The memoised verdict contradicts the witness search: the shared
            # memo is poisoned.  Treat the candidate as unsolvable (see
            # _certified) and keep chasing.
        return None

    def exhausted(self, beam: list[BeamState]) -> ChaseResult:
        return self._result(KIND_EXHAUSTED)


def search_upper_bound(
    problem: Problem,
    *,
    engine: Engine | None = None,
    max_steps: int = 8,
    beam_width: int | None = None,
    max_hardenings: int | None = None,
    budget: int | None = None,
    checkpoint: bool = False,
    resume: bool = False,
) -> ChaseResult:
    """Automatically chase an upper-bound certificate for ``problem``.

    ``beam_width`` / ``max_hardenings`` / ``budget`` default to the engine's
    ``chase_beam_width`` / ``chase_max_hardenings`` / ``chase_budget``
    configuration; the engine supplies the derivation size guards, the memo
    cache, the worker pool, and the 0-round input setting (``orientations``)
    exactly as for :func:`~repro.search.driver.search_lower_bound`.  See the
    module docstring for the algorithm, and that function's docstring for
    the checkpoint/resume contract (identical here, with ``chase_``-prefixed
    files in the same directory).
    """
    engine = get_default_engine() if engine is None else engine
    config = engine.config
    policy = _UpperBound(
        engine,
        problem,
        beam_width=config.chase_beam_width if beam_width is None else beam_width,
        fanout=config.chase_max_hardenings if max_hardenings is None else max_hardenings,
        budget=config.chase_budget if budget is None else budget,
    )
    return beam_search(policy, max_steps, checkpoint, resume)
