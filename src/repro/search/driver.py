"""The lower-bound beam search behind ``Engine.search_lower_bound``.

The depth loop, checkpointing and memoised 0-round verdicts are shared with
the upper-bound chase in :mod:`repro.search.beam`; this module holds the
direction policy -- the expansion task, the fixed-point terminal test, and
the certificates.

A search *state* is a partial certificate: the chain of problems reached so
far (none of them 0-round solvable) together with the alternating
speedup/relaxation steps that produced it.  Each round of the search expands
every beam state by one speedup step (fanned out over the engine's worker
pool and memoised through its content-addressed cache), then considers the
derived problem itself plus every certified relaxation move of it
(:mod:`repro.search.moves`):

* a candidate isomorphic to an earlier problem *of its own chain* is a
  pumpable fixed point -- the search stops and returns the unbounded
  certificate immediately;
* a candidate that is 0-round solvable is discarded (relaxing that far
  destroys the lower bound); the verdicts are memoised cross-branch through
  the engine's :class:`~repro.core.zero_round.ZeroRoundMemo`, keyed on the
  candidate's canonical form -- the one the dedup uses, computed once per
  problem instance -- so renamed twins reached by different branches
  decide once;
* surviving candidates are deduplicated by canonical hash and scored by
  description size (small problems are exactly what Section 2.1's relaxation
  technique exists to reach), and the best ``beam_width`` become the next
  beam.

The search is budgeted: at most ``budget`` speedup derivations are
attempted, and states whose derivation trips the engine's size guards
(:class:`~repro.core.speedup.EngineLimitError`) are dropped rather than
pursued.  Since the streaming full step retired the a-priori candidate-grid
refusal, those trips report real enumeration work (``max_candidate_configs``)
or a genuinely oversized surviving frontier (``max_live_configs``), so the
search prunes on actual blow-ups rather than pessimistic grid predictions.
If no fixed point appears within ``max_steps`` rounds, the deepest surviving
chain is returned as a concrete ``k``-round certificate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.engine import Engine

from repro.core.canonical import canonical_hash
from repro.core.certificate import (
    RELAXATION,
    SPEEDUP,
    TERMINAL_FIXED_POINT,
    TERMINAL_UNSOLVABLE,
    CertificateStep,
    LowerBoundCertificate,
)
from repro.core.problem import Problem
from repro.core.speedup import EngineLimitError
from repro.engine.engine import get_default_engine
from repro.engine.executor import ExpandOption, ExpandPayload, ExpandTask
from repro.search.beam import BeamPolicy, BeamState, beam_search
from repro.search.moves import RelaxationMove, generate_moves

KIND_TRIVIAL = "trivial"
KIND_CHAIN = "chain"
KIND_FIXED_POINT = "fixed-point"

# Above this description size, every surviving move still costs a 0-round
# decision downstream in this driver; on huge derived problems that dominates
# the wall clock, and the beam keeps only ``beam_width`` states anyway, so the
# per-state move budget shrinks to just past the beam width instead of the
# configured cap.  Measured on a 2-vCPU host on the 976-label weak-3-coloring
# Pi_1 (size 747,838): a move costs about 0.15 s to generate, its canonical
# hash included (memoised on the target, so ``evaluate`` reuses it), and
# about 1 s for its 0-round decision.
_LARGE_STATE_SIZE = 100_000


@dataclass(frozen=True)
class SearchStats:
    """Bookkeeping of one search run (for reports and budget tuning)."""

    speedup_calls: int = 0
    states_expanded: int = 0
    candidates_generated: int = 0
    duplicates_pruned: int = 0
    zero_round_pruned: int = 0
    limit_hits: int = 0
    zero_round_checks: int = 0
    zero_round_memo_hits: int = 0
    task_failures: int = 0

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an automated lower-bound search.

    ``kind`` is ``"fixed-point"`` (unbounded certificate found), ``"chain"``
    (the deepest chain certificate within budget), or ``"trivial"`` (the
    input problem is already 0-round solvable, so no lower bound exists and
    ``certificate`` is None).
    """

    problem: Problem
    kind: str
    certificate: LowerBoundCertificate | None
    stats: SearchStats

    @property
    def unbounded(self) -> bool:
        return self.kind == KIND_FIXED_POINT

    @property
    def bound(self) -> int | None:
        """Rounds the problem is certified unsolvable in (None when trivial)."""
        if self.certificate is None:
            return None
        return self.certificate.claimed_bound

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form -- the payload of ``python -m repro search --json``."""
        return {
            "problem": self.problem.to_dict(),
            "kind": self.kind,
            "bound": self.bound,
            "unbounded": self.unbounded,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
            "stats": self.stats.to_dict(),
        }

    def summary(self) -> str:
        lines = [f"search over {self.problem.name}: {self.kind}"]
        if self.kind == KIND_TRIVIAL:
            lines.append("problem is 0-round solvable; no lower bound exists")
        elif self.certificate is not None:
            if self.unbounded:
                lines.append(
                    "pumpable fixed point: Omega(log n) on bounded-degree "
                    "high-girth classes"
                )
            lines.append(
                f"certified: not solvable in {self.certificate.claimed_bound} "
                f"round(s) ({len(self.certificate.steps)} chain step(s))"
            )
        stats = self.stats
        lines.append(
            f"explored: {stats.speedup_calls} speedup(s), "
            f"{stats.candidates_generated} candidate(s), "
            f"{stats.duplicates_pruned} duplicate(s) pruned, "
            f"{stats.zero_round_pruned} 0-round prune(s), "
            f"{stats.limit_hits} size-limit hit(s)"
        )
        return "\n".join(lines)


def execute_expand_task(engine: Engine, task: ExpandTask) -> ExpandPayload:
    """Run one beam expansion: speedup, moves, candidate evaluation.

    This is the backend-side half of the search's expansion
    (:class:`~repro.engine.executor.ExpandTask`): it performs every
    CPU-heavy part -- the speedup derivation, move generation, and each
    candidate's compression, canonical hashing, and memoised 0-round
    decision -- and returns an :class:`~repro.engine.executor.ExpandPayload`
    that :meth:`_LowerBound.consume` turns into beam states.  Runs in the
    parent under the serial backend and inside pool workers under
    ``process``.

    A derived problem that is itself 0-round solvable short-circuits move
    evaluation (all its relaxations are solvable too; the policy prunes the
    branch), mirroring the lazy sequential order.  Size-guard trips come
    back as ``limit_hit`` payloads rather than exceptions so a process
    worker's batch neighbours are unaffected.
    """
    try:
        result = engine.speedup(task.problem)
    except EngineLimitError:
        return ExpandPayload(result=None, limit_hit=True, options=(), moves_generated=0)
    moves_cap = task.max_moves
    if result.full.description_size > _LARGE_STATE_SIZE:
        moves_cap = min(task.max_moves, task.beam_width + 1)
    moves = tuple(generate_moves(result.full, max_moves=moves_cap))

    def evaluate(target: Problem, move: RelaxationMove | None) -> ExpandOption:
        # 0-round solvability is invariant under compression (every witness
        # uses only usable labels): verdict and dedup key share one instance.
        compressed = target.compressed()
        key = canonical_hash(compressed)
        solvable, memo_hit = engine.zero_round_verdict(compressed)
        return ExpandOption(move, key, solvable, memo_hit)

    options = [evaluate(result.full, None)]
    if not options[0].solvable:
        options.extend(evaluate(move.target, move) for move in moves)
    return ExpandPayload(
        result, limit_hit=False, options=tuple(options), moves_generated=len(moves)
    )


class _LowerBound(BeamPolicy[SearchResult]):
    """The lower-bound direction: stop when a chain revisits its own problem."""

    prefix = "search"
    fanout_name = "max_moves"
    charge_at_dispatch = True
    prunes_revisits = False
    stat_names = tuple(field.name for field in fields(SearchStats))

    def _result(
        self, kind: str, state: BeamState | None = None, revisit: int | None = None
    ) -> SearchResult:
        certificate: LowerBoundCertificate | None = None
        if state is not None:
            terminal = TERMINAL_UNSOLVABLE if revisit is None else TERMINAL_FIXED_POINT
            certificate = LowerBoundCertificate(
                initial=self.problem,
                steps=state.steps,
                terminal=terminal,
                fixed_point_of=revisit,
                orientations=self.engine.config.orientations,
            )
        stats = SearchStats(**self.counters.counts())
        return SearchResult(self.problem, kind, certificate, stats)

    def root_result(self, root: BeamState, compressed: Problem) -> SearchResult | None:
        # The root is checked and memoised on its compressed form like every
        # other candidate.
        solvable, memo_hit = self.engine.zero_round_verdict(compressed)
        self.counters.add_zero_round(memo_hit)
        return self._result(KIND_TRIVIAL) if solvable else None

    def task(self, state: BeamState) -> ExpandTask:
        return ExpandTask(
            state.problem, max_moves=self.fanout, beam_width=self.beam_width
        )

    def consume(
        self, state: BeamState, payload: object, offer: Callable[[BeamState], None]
    ) -> SearchResult | None:
        assert isinstance(payload, ExpandPayload)
        counters = self.counters
        if payload.limit_hit or payload.result is None:
            counters.add("limit_hits")
            return None
        derived = payload.result.full
        head = payload.options[0]
        step = CertificateStep(kind=SPEEDUP, problem=derived, speedup=payload.result)
        reached = state.extend((step,), head.key)
        for option in payload.options:
            counters.add("candidates_generated")
            move = option.move
            candidate = reached
            if move is not None:
                # A move's relaxation target is one more chain position.
                relaxation = CertificateStep(
                    kind=RELAXATION, problem=move.target, relaxation=move.certificate()
                )
                candidate = reached.extend((relaxation,), option.key)
            revisit = _chain_revisit(candidate)
            if revisit is not None:
                return self._result(KIND_FIXED_POINT, candidate, revisit)
            counters.add_zero_round(option.memo_hit)
            if option.solvable:
                counters.add("zero_round_pruned")
                if move is None:
                    # Relaxations of a 0-round solvable problem are all
                    # 0-round solvable too; the whole branch is dead (the
                    # payload carried no move options -- see
                    # execute_expand_task -- but they count as pruned).
                    counters.add("zero_round_pruned", payload.moves_generated)
                    break
                continue
            offer(candidate)
        return None

    def exhausted(self, beam: list[BeamState]) -> SearchResult:
        # Every beam state is equally deep; certify the best-scored chain.
        return self._result(KIND_CHAIN, beam[0])


def search_lower_bound(
    problem: Problem,
    *,
    engine: Engine | None = None,
    max_steps: int = 8,
    beam_width: int | None = None,
    max_moves: int | None = None,
    budget: int | None = None,
    checkpoint: bool = False,
    resume: bool = False,
) -> SearchResult:
    """Automatically search for a lower-bound certificate for ``problem``.

    ``beam_width`` / ``max_moves`` / ``budget`` default to the engine's
    ``search_beam_width`` / ``search_max_moves`` / ``search_budget``
    configuration; the engine also supplies the derivation size guards, the
    memo cache, the worker pool, and the 0-round input setting
    (``orientations``).  See the module docstring for the algorithm.

    With ``checkpoint=True`` and an engine ``cache_dir``, the full beam
    state is serialized to ``cache_dir/checkpoints/`` after every completed
    depth; a later call with ``resume=True`` (same problem, same
    parameters) reconstructs that state and continues, producing the
    certificate an uninterrupted run would have -- byte-identical JSON.
    The checkpoint is deleted once the search returns normally.  A resume
    finding no usable checkpoint (absent, corrupt, or written under
    different parameters) silently starts fresh.
    """
    engine = get_default_engine() if engine is None else engine
    config = engine.config
    policy = _LowerBound(
        engine,
        problem,
        beam_width=config.search_beam_width if beam_width is None else beam_width,
        fanout=config.search_max_moves if max_moves is None else max_moves,
        budget=config.search_budget if budget is None else budget,
    )
    return beam_search(policy, max_steps, checkpoint, resume)


def _chain_revisit(state: BeamState) -> int | None:
    """Earliest chain position the state's own problem revisits, if any.

    The scan covers every position strictly before the state's own, so the
    index it yields is exactly ``verify()``'s chain position.  Chain keys
    are canonical hashes of the compressed problems, equal exactly for
    renamed copies, so key equality is the revisit test; ``verify()``
    re-checks the isomorphism it implies independently.
    """
    keys = state.chain_keys
    return keys.index(keys[-1]) if keys[-1] in keys[:-1] else None
