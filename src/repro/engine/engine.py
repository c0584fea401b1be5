"""The unified engine: configured, cached, batch and streaming derivations.

:class:`Engine` is the stable request/response surface of the library (the
role Olivetti's Round Eliminator server plays for its implementation).  It
owns

* an :class:`~repro.engine.config.EngineConfig` (derivation limits, simplify
  mode, pipeline policy, cache policy),
* a :class:`~repro.engine.cache.SpeedupCache` (content-addressed memoisation
  keyed on canonical problem hashes, optionally persisted as JSON),
* batch fan-out over a pluggable execution backend -- serial loop or
  process pool (:mod:`repro.engine.executor`) -- behind
  :meth:`Engine.speedup_many`, :meth:`Engine.run_many`, and
  :meth:`Engine.execute_batch`,
* a lazy, streaming round-elimination pipeline
  (:meth:`Engine.iter_elimination`) that the classic
  ``run_round_elimination`` is a thin wrapper over.

The module-level functions ``repro.speedup`` / ``repro.iterate_speedup`` /
``repro.run_round_elimination`` remain as compatibility shims delegating to
the process-wide default engine (:func:`get_default_engine`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Generator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.sequence import EliminationResult, Relaxer, SequenceStep
    from repro.search.classify import ClassifyResult
    from repro.search.driver import SearchResult
    from repro.search.upper import ChaseResult

from repro.core.canonical import canonical_hash
from repro.core.problem import Problem
from repro.core.relaxation import certify_relaxation
from repro.core.speedup import (
    EngineLimitError,
    HalfStepResult,
    SpeedupResult,
    compute_speedup,
)
from repro.core.speedup import half_step as _half_step
from repro.core.zero_round import (
    ZeroRoundMemo,
    ZeroRoundWitness,
    is_zero_round_solvable,
    zero_round_no_input,
    zero_round_with_orientations,
)
from repro.engine import faultinject
from repro.engine.cache import SpeedupCache
from repro.engine.config import EngineConfig
from repro.engine.executor import (
    BatchStats,
    Task,
    run_batch,
    run_task_batch,
    speedup_batch,
)
from repro.engine.resilience import TaskFailure

# Callback invoked with each freshly produced SequenceStep (progress hook for
# long pipelines: logging, UI updates, early metrics).
ProgressCallback = Callable[["SequenceStep"], None]


class Engine:
    """A configured round-elimination engine with a shared derivation cache.

    Engines are cheap facades: :meth:`with_config` derives a re-configured
    engine *sharing* the same cache (unless the override changes the cache
    policy itself), which is how the compatibility shims apply per-call flags
    without losing warm state.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        cache: SpeedupCache | None = None,
        zero_round_memo: ZeroRoundMemo | None = None,
    ):
        self._config = config if config is not None else EngineConfig()
        if cache is not None:
            self._cache = cache
        else:
            self._cache = SpeedupCache(
                maxsize=self._config.cache_size,
                directory=self._config.cache_dir,
                max_weight=self._config.cache_max_weight,
            )
        if zero_round_memo is not None:
            self._zero_round_memo: ZeroRoundMemo | None = zero_round_memo
        elif self._config.zero_round_memo:
            memo_dir = (
                None
                if self._config.cache_dir is None
                else Path(self._config.cache_dir) / "zero_round"
            )
            self._zero_round_memo = ZeroRoundMemo(
                maxsize=self._config.zero_round_memo_size, directory=memo_dir
            )
        else:
            self._zero_round_memo = None
        self._batch_lock = threading.Lock()
        self._last_batch_stats: BatchStats | None = None
        # Parse once; a config carrying a plan activates scripted fault
        # injection process-wide (cache writes included) -- chaos tests
        # build one engine and everything downstream misbehaves on script.
        self._fault_plan = faultinject.parse_fault_plan(self._config.fault_plan)
        if self._fault_plan is not None:
            faultinject.activate(self._fault_plan)

    # -- configuration -------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def cache(self) -> SpeedupCache:
        return self._cache

    @property
    def zero_round_memo(self) -> ZeroRoundMemo | None:
        return self._zero_round_memo

    @property
    def fault_plan(self) -> "faultinject.FaultPlan | None":
        """The parsed fault-injection plan, or None when running fault-free."""
        return self._fault_plan

    def with_config(self, **overrides: Any) -> "Engine":
        """A re-configured engine; shares this engine's caches when possible.

        Each cache is rebuilt only when a knob *governing that cache*
        actually changes value: the speedup cache on ``cache_size`` /
        ``cache_dir`` / ``cache_max_weight``, the 0-round memo on
        ``zero_round_memo`` / ``zero_round_memo_size`` / ``cache_dir`` (the
        memo's directory nests under the cache directory).  Everything else
        -- including restating a knob at its current value -- shares the
        live caches, so e.g. overriding a cache knob no longer silently
        drops the warm 0-round memo.  Old caches keep serving engines
        already holding them.
        """
        config = self._config.replace(**overrides)
        changed = {
            name
            for name in overrides
            if getattr(config, name) != getattr(self._config, name)
        }
        share_cache = not (changed & {"cache_size", "cache_dir", "cache_max_weight"})
        share_memo = not (
            changed & {"zero_round_memo", "zero_round_memo_size", "cache_dir"}
        )
        return Engine(
            config,
            cache=self._cache if share_cache else None,
            zero_round_memo=self._zero_round_memo if share_memo else None,
        )

    def cache_stats(self) -> dict[str, int]:
        return self._cache.stats()

    def zero_round_stats(self) -> dict[str, int]:
        """Hit/miss/entry counts of the 0-round memo (all zero when disabled)."""
        if self._zero_round_memo is None:
            return {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}
        return self._zero_round_memo.stats()

    def clear_cache(self) -> None:
        self._cache.clear()
        if self._zero_round_memo is not None:
            self._zero_round_memo.clear()

    # -- single derivations --------------------------------------------------

    def half_step(self, problem: Problem, simplify: bool | None = None) -> HalfStepResult:
        """Derive ``Pi_{1/2}`` under this engine's size limits (uncached)."""
        cfg = self._config
        return _half_step(
            problem,
            simplify=cfg.simplify if simplify is None else simplify,
            max_derived_labels=cfg.max_derived_labels,
            max_candidate_configs=cfg.max_candidate_configs,
        )

    def speedup(self, problem: Problem, simplify: bool | None = None) -> SpeedupResult:
        """One full speedup step ``Pi -> Pi_1``, memoised content-addressed.

        A cache hit fires for any problem identical to a previously derived
        one up to label renaming; the stored result is translated into the
        request's label space (see :mod:`repro.engine.cache`).
        """
        cfg = self._config
        use_simplify = cfg.simplify if simplify is None else simplify
        if not cfg.cache:
            return compute_speedup(
                problem,
                simplify=use_simplify,
                max_derived_labels=cfg.max_derived_labels,
                max_candidate_configs=cfg.max_candidate_configs,
                max_live_configs=cfg.max_live_configs,
            )
        # Threads missing on one key at once each derive; the derivation is
        # deterministic, so they store results equal up to label renaming.
        cached, form, key = self._cache.acquire(problem, use_simplify)
        if cached is not None:
            return cached
        result = compute_speedup(
            problem,
            simplify=use_simplify,
            max_derived_labels=cfg.max_derived_labels,
            max_candidate_configs=cfg.max_candidate_configs,
            max_live_configs=cfg.max_live_configs,
        )
        # store() returns the frozen shared copy (read-only meaning maps),
        # so hits and the original call observe the same object.  The
        # out-of-band per-fold timing counters describe the derivation that
        # produced the entry, so they ride along: the cold caller (and any
        # later hit on the same stored object) can read them.
        stored = self._cache.store(key, form, result)
        if result.kernel_stats is not None:
            stored.__dict__["_kernel_stats"] = result.kernel_stats
        return stored

    def iterate_speedup(
        self, problem: Problem, steps: int, simplify: bool | None = None
    ) -> list[SpeedupResult]:
        """Apply the speedup ``steps`` times, returning every intermediate result."""
        results: list[SpeedupResult] = []
        current = problem
        for _ in range(steps):
            result = self.speedup(current, simplify=simplify)
            results.append(result)
            current = result.full
        return results

    # -- batch fan-out -------------------------------------------------------

    def _resolve_workers(self, job_count: int) -> int:
        if self._config.max_workers is not None:
            return min(self._config.max_workers, max(job_count, 1))
        import os

        return min(8, os.cpu_count() or 2, max(job_count, 1))

    def speedup_many(
        self, problems: Sequence[Problem], simplify: bool | None = None
    ) -> list["SpeedupResult | TaskFailure"]:
        """Derive ``Pi_1`` for each problem over the configured backend.

        Results are returned in input order; each is a correct derivation of
        its input, and every backend ends the batch with the same warm cache
        state.  Requests sharing a canonical key -- label-renamed twins
        included -- derive once: the serial loop hits the cache on every
        twin after the first, and the process backend dispatches one task
        per missed key and translates the stored result into the other
        requests' label spaces.  (The derived alphabet's arbitrary short
        names may still depend on *which* twin derived; canonical hashes
        and meanings never do.)  Batch metering lands in
        :meth:`last_batch_stats`.

        Execution is fault-tolerant (:mod:`repro.engine.resilience`): a
        slot holds a :class:`~repro.engine.resilience.TaskFailure` when
        that problem's derivation kept failing transiently (worker crashes,
        deadline kills) past the configured
        :class:`~repro.engine.resilience.RetryPolicy` -- the rest of the
        batch still returns results.  Deterministic
        :class:`EngineLimitError`\\ s propagate as always.
        """
        cfg = self._config
        use_simplify = cfg.simplify if simplify is None else simplify
        results, stats = speedup_batch(self, list(problems), use_simplify)
        with self._batch_lock:
            self._last_batch_stats = stats
        return results

    def run_many(
        self,
        problems: Sequence[Problem],
        max_steps: int,
        relaxer: Relaxer | None = None,
    ) -> list["EliminationResult | TaskFailure"]:
        """Run the elimination pipeline for each problem over the backend.

        Returns :class:`~repro.core.sequence.EliminationResult` objects in
        input order, equal to the sequential runs.  Under the ``process``
        backend ``relaxer`` must be picklable (a module-level function).
        A slot holds a :class:`~repro.engine.resilience.TaskFailure` when
        that pipeline was quarantined by the retry policy.  Batch metering
        lands in :meth:`last_batch_stats`.
        """
        results, stats = run_batch(self, list(problems), max_steps, relaxer)
        with self._batch_lock:
            self._last_batch_stats = stats
        return results

    def execute_batch(self, tasks: Sequence[Task]) -> list[object]:
        """Run executor tasks on the configured backend, in task order.

        The generic entry point backing the beam searches' expansions;
        see :mod:`repro.engine.executor` for the task shapes.  Batch
        metering lands in :meth:`last_batch_stats`.
        """
        values, stats = run_task_batch(self, list(tasks))
        with self._batch_lock:
            self._last_batch_stats = stats
        return values

    def last_batch_stats(self) -> BatchStats | None:
        """Metering of the most recent batch call, or None before the first.

        Covers :meth:`speedup_many`, :meth:`run_many`, and
        :meth:`execute_batch` (the beam searches' expansions); see
        :class:`~repro.engine.executor.BatchStats` for the fields and the
        measured serial fraction.
        """
        with self._batch_lock:
            return self._last_batch_stats

    # -- pipelines -----------------------------------------------------------

    def zero_round_verdict(self, problem: Problem) -> tuple[bool, bool]:
        """``(solvable, memo_hit)`` in the engine's input setting, memoised.

        Verdicts are shared through the engine's :class:`ZeroRoundMemo`
        (canonical-hash keyed, so renamed twins hit) across calls, search
        branches, and caller threads.  Falls back to the uncached decision
        procedures when the memo is disabled.
        """
        orientations = self._config.orientations
        if self._zero_round_memo is None:
            return is_zero_round_solvable(problem, orientations=orientations), False
        return self._zero_round_memo.verdict(problem, orientations)

    def zero_round_solvable(self, problem: Problem) -> bool:
        """The bool of :meth:`zero_round_verdict`; with a memo it is asked
        through :meth:`ZeroRoundMemo.check`, which perfbench's trace wraps."""
        if self._zero_round_memo is None:
            return self.zero_round_verdict(problem)[0]
        return self._zero_round_memo.check(problem, self._config.orientations)

    def _witness_for(self, problem: Problem) -> ZeroRoundWitness | None:
        # Deliberately unmemoised: a pipeline sees each problem once, so the
        # canonical hashing the memo keys on would cost more than the witness
        # search it skips.  The memo earns its keep in the search driver,
        # where branches revisit renamed twins constantly.
        if self._config.orientations:
            return zero_round_with_orientations(problem)
        return zero_round_no_input(problem)

    def iter_elimination(
        self,
        problem: Problem,
        max_steps: int,
        relaxer: Relaxer | None = None,
        progress: ProgressCallback | None = None,
    ) -> Generator[SequenceStep, None, bool]:
        """Stream the iterated speedup pipeline as it is computed.

        Yields :class:`~repro.core.sequence.SequenceStep` objects lazily --
        step 0 is the initial problem -- honoring the engine's pipeline
        policy (``stop_at_zero_round``, ``detect_fixed_points``,
        ``orientations``, ``simplify``).  ``progress`` is invoked with each
        step before it is yielded.  The generator's return value (available
        as ``StopIteration.value``) is True iff the description-size guards
        stopped the pipeline (Section 2.1's explosion).

        Fixed-point detection keeps the canonical key of every step's
        compressed form: a step repeats an earlier one iff their keys match,
        so each new problem is hashed once and compared by string equality.
        """
        from repro.core.sequence import SequenceStep

        cfg = self._config

        def emit(step: SequenceStep) -> SequenceStep:
            if progress is not None:
                progress(step)
            return step

        def fixed_point_key(problem: Problem) -> str | None:
            return canonical_hash(problem.compressed()) if cfg.detect_fixed_points else None

        steps: list[SequenceStep] = []
        keys: list[str | None] = []
        current = problem
        first = SequenceStep(
            index=0,
            problem=current,
            relaxation=None,
            zero_round_witness=self._witness_for(current),
            isomorphic_to_step=None,
        )
        steps.append(first)
        keys.append(fixed_point_key(current))
        yield emit(first)

        for index in range(1, max_steps + 1):
            if cfg.stop_at_zero_round and steps[-1].zero_round_solvable:
                return False
            if steps[-1].isomorphic_to_step is not None:
                return False
            try:
                derived = self.speedup(current).full
            except EngineLimitError:
                return True
            certificate = None
            if relaxer is not None:
                relaxed = relaxer(derived, index)
                if relaxed is not None:
                    target, mapping = relaxed
                    certificate = certify_relaxation(derived, target, mapping)
                    derived = target
            key = fixed_point_key(derived)
            iso_index = None
            if key is not None and key in keys:
                iso_index = steps[keys.index(key)].index
            step = SequenceStep(
                index=index,
                problem=derived,
                relaxation=certificate,
                zero_round_witness=self._witness_for(derived),
                isomorphic_to_step=iso_index,
            )
            steps.append(step)
            keys.append(key)
            yield emit(step)
            current = derived
        return False

    # -- automated lower-bound search ----------------------------------------

    def search_lower_bound(
        self,
        problem: Problem,
        max_steps: int = 8,
        *,
        beam_width: int | None = None,
        max_moves: int | None = None,
        budget: int | None = None,
        checkpoint: bool = False,
        resume: bool = False,
    ) -> SearchResult:
        """Search for a lower-bound certificate (see :mod:`repro.search`).

        Beam search over speedup steps interleaved with certified relaxation
        moves, run under this engine's size guards, memo cache and worker
        pool.  ``beam_width`` / ``max_moves`` / ``budget`` default to the
        ``search_*`` knobs of :class:`~repro.engine.config.EngineConfig`.
        Returns a :class:`~repro.search.driver.SearchResult` whose
        certificate (when found) re-verifies independently of this engine.

        With ``checkpoint=True`` (requires a ``cache_dir``) the driver
        serializes its full state to ``cache_dir/checkpoints/`` after every
        completed depth; ``resume=True`` restarts a killed run from that
        state and continues to the identical certificate an uninterrupted
        run produces.
        """
        from repro.search.driver import search_lower_bound

        return search_lower_bound(
            problem,
            engine=self,
            max_steps=max_steps,
            beam_width=beam_width,
            max_moves=max_moves,
            budget=budget,
            checkpoint=checkpoint,
            resume=resume,
        )

    def search_upper_bound(
        self,
        problem: Problem,
        max_steps: int = 8,
        *,
        beam_width: int | None = None,
        max_hardenings: int | None = None,
        budget: int | None = None,
        checkpoint: bool = False,
        resume: bool = False,
    ) -> ChaseResult:
        """Chase an upper-bound certificate (see :mod:`repro.search.upper`).

        Beam search driving speedup steps (interleaved with certified
        hardening restrictions) toward a 0-round-solvable problem, run
        under this engine's size guards, memo cache and worker pool.
        ``beam_width`` / ``max_hardenings`` / ``budget`` default to the
        ``chase_*`` knobs of :class:`~repro.engine.config.EngineConfig`.
        Returns a :class:`~repro.search.upper.ChaseResult` whose certificate
        (when found) re-verifies independently of this engine.  The
        checkpoint/resume contract matches :meth:`search_lower_bound`.
        """
        from repro.search.upper import search_upper_bound

        return search_upper_bound(
            problem,
            engine=self,
            max_steps=max_steps,
            beam_width=beam_width,
            max_hardenings=max_hardenings,
            budget=budget,
            checkpoint=checkpoint,
            resume=resume,
        )

    def classify(
        self,
        problem: Problem,
        max_steps: int = 8,
        *,
        beam_width: int | None = None,
        max_moves: int | None = None,
        budget: int | None = None,
        chase_beam_width: int | None = None,
        chase_max_hardenings: int | None = None,
        chase_budget: int | None = None,
        checkpoint: bool = False,
        resume: bool = False,
    ) -> ClassifyResult:
        """Bracket ``problem``'s round complexity from both sides.

        Runs :meth:`search_lower_bound` then :meth:`search_upper_bound` on
        this engine (sharing its caches) and folds both certificates into a
        :class:`~repro.search.classify.ComplexityBracket`; see
        :mod:`repro.search.classify` for the bound semantics and the
        ``tight`` / ``gap`` / ``open`` verdicts.
        """
        from repro.search.classify import classify

        return classify(
            problem,
            engine=self,
            max_steps=max_steps,
            beam_width=beam_width,
            max_moves=max_moves,
            budget=budget,
            chase_beam_width=chase_beam_width,
            chase_max_hardenings=chase_max_hardenings,
            chase_budget=chase_budget,
            checkpoint=checkpoint,
            resume=resume,
        )

    def run(
        self,
        problem: Problem,
        max_steps: int,
        relaxer: Relaxer | None = None,
        progress: ProgressCallback | None = None,
    ) -> EliminationResult:
        """Run the pipeline to completion, collecting an EliminationResult."""
        from repro.core.sequence import EliminationResult

        generator = self.iter_elimination(
            problem, max_steps, relaxer=relaxer, progress=progress
        )
        steps: list[SequenceStep] = []
        stopped_by_limit = False
        while True:
            try:
                steps.append(next(generator))
            except StopIteration as stop:
                stopped_by_limit = bool(stop.value)
                break
        return EliminationResult(steps=steps, stopped_by_limit=stopped_by_limit)


# -- the process-wide default engine ----------------------------------------

_default_lock = threading.Lock()
_default_engine: Engine | None = None


def get_default_engine() -> Engine:
    """The engine behind the compatibility shims (created on first use)."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine()
        return _default_engine


def set_default_engine(engine: Engine | None) -> None:
    """Replace the process-wide default engine (None resets to a fresh one)."""
    global _default_engine
    with _default_lock:
        _default_engine = engine
