"""Pluggable execution backends for the engine's batch fan-out.

``EngineConfig(executor=...)`` selects how ``Engine.speedup_many``,
``Engine.run_many``, and the beam searches' expansions (both directions,
:mod:`repro.search.beam`) distribute their per-item work:

* ``"serial"`` -- an in-order loop, no pool; the default when
  ``REPRO_EXECUTOR`` is unset.  The reference semantics the ``process``
  backend is differentially tested against, and the fastest choice for tiny
  batches (pool startup costs more than the work) and for GIL-bound
  searches.  There is no thread backend: the derivations are pure Python
  held by the GIL, and a thread pool never beat this loop reliably.  On a
  2-vCPU host with ``max_workers=2``, alternating serial/thread pairs gave
  threads 12 of 20 pairs on a cold ``speedup_many`` over the eleven problems
  of perfbench's ``derive-cold`` (medians of two runs of ten: 0.123 s
  serial against 0.134 s threaded, then 0.172 s against 0.170 s) and 2 of
  6 pairs on a weak-2-coloring[3] ``classify`` under the ``classify-mix``
  caps (2.03 s serial against 2.06 s threaded).
* ``"process"`` -- a ``ProcessPoolExecutor`` shipping pickled tasks to
  worker processes, each owning a private serial :class:`~repro.engine.
  engine.Engine` built from the parent's configuration -- including the
  streaming limits, so every worker derives with the same caps as the
  parent would.  Workers record
  every speedup-cache insert and 0-round-memo verdict as deltas
  (:meth:`~repro.utils.jsonio.JsonStore.drain_recorded` on each cache's
  store); the parent merges them back so its caches end a batch as warm as
  a serial run's.
  True parallelism for CPU-heavy batches, at the price of pickling and of
  workers not seeing entries the parent learns mid-batch.

The dispatch is task-shaped, not method-shaped: the four frozen task types
(:class:`SpeedupTask`, :class:`RunTask`, :class:`ExpandTask`,
:class:`ChaseTask`) are the unit of shipping, and :func:`execute_task` maps
any of them onto any engine -- the same function runs in the parent
(serial backend) and inside workers (process backend), which is what makes
the backends differentially comparable.

Every batch is metered (:class:`BatchStats`): wall clock, summed per-task
compute, and the parent-side serial components -- canonical hashing, cache
lock waits, result-merge time -- whose ratio to wall clock
is the measured Amdahl serial fraction, read per batch from
``Engine.last_batch_stats()`` and reported by the repository benchmark as
``executor.serial_fraction``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

from repro.core.problem import Problem
from repro.core.speedup import SpeedupResult
from repro.engine import faultinject
from repro.engine.config import EngineConfig
from repro.engine.resilience import (
    FaultCounters,
    TaskFailure,
    execute_with_retry,
    run_resilient_process_batch,
)
from repro.utils.jsonio import JsonStore, sweep_stale_tmp_files

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from repro.core.canonical import CanonicalForm
    from repro.core.sequence import EliminationResult, Relaxer
    from repro.engine.cache import CacheEntry
    from repro.engine.engine import Engine
    from repro.search.moves import RelaxationMove


# -- task shapes --------------------------------------------------------------


@dataclass(frozen=True)
class SpeedupTask:
    """One speedup derivation: ``problem -> SpeedupResult``."""

    problem: Problem
    simplify: bool


@dataclass(frozen=True)
class RunTask:
    """One full elimination pipeline: ``problem -> EliminationResult``.

    ``relaxer`` crosses the process boundary by pickle, so under the
    ``process`` backend it must be a module-level callable (lambdas and
    closures raise at submission time).
    """

    problem: Problem
    max_steps: int
    relaxer: "Relaxer | None" = None


@dataclass(frozen=True)
class ExpandTask:
    """One beam-search expansion: speedup + moves + candidate evaluation.

    Executed by :func:`repro.search.driver.execute_expand_task`; the
    payload carries everything the lower-bound policy's ``consume`` needs
    when the shared beam loop (:func:`repro.search.beam.beam_search`) hands
    it over, so the CPU-heavy parts (derivation, move generation,
    compression, canonical hashing, 0-round decisions) all happen
    backend-side.
    """

    problem: Problem
    max_moves: int
    beam_width: int


@dataclass(frozen=True)
class ChaseTask:
    """One upper-bound chase expansion: hardenings + speedups + 0-round checks.

    Executed by :func:`repro.search.upper.execute_chase_task`, and its
    payload consumed by the upper-bound policy inside the shared beam loop
    (:func:`repro.search.beam.beam_search`): the state's problem and each
    of its hardening restrictions get one speedup derivation, and every
    *derived* problem gets a memoised 0-round decision (hardened problems
    themselves never do -- a restriction cannot become 0-round solvable
    when its source is not, see ``search/upper.py``).
    """

    problem: Problem
    max_hardenings: int


Task = Union[SpeedupTask, RunTask, ExpandTask, ChaseTask]


@dataclass(frozen=True)
class ExpandOption:
    """One evaluated candidate of an expansion.

    ``move`` is ``None`` for the derived problem itself, else the relaxation
    move that produced the candidate.  ``key`` is the canonical hash of the
    candidate's compressed form (a process worker's problems arrive without
    their memoised form); ``solvable`` is its memoised 0-round verdict;
    ``memo_hit`` records whether the executing engine's memo already held
    it (the search's local stats consume this).
    """

    move: "RelaxationMove | None"
    key: str
    solvable: bool
    memo_hit: bool


@dataclass(frozen=True)
class ExpandPayload:
    """What one :class:`ExpandTask` produced.

    ``options[0]`` is always the derived problem's own option; move options
    follow in move order, and are *absent* when the derived problem is
    0-round solvable (its relaxations all are too -- the search prunes the
    whole branch, so evaluating them would be wasted work).
    ``moves_generated`` still records how many moves existed, which the
    search's prune accounting needs.  ``limit_hit`` marks a derivation that
    tripped the engine's size guards (``result`` is then ``None``).
    """

    result: SpeedupResult | None
    limit_hit: bool
    options: tuple[ExpandOption, ...]
    moves_generated: int


@dataclass(frozen=True)
class ChaseOption:
    """One evaluated candidate of a chase expansion.

    ``move`` is ``None`` for the speedup of the state's own problem, else
    the hardening move whose target was sped up.  ``result`` is the
    derivation (``None`` with ``limit_hit`` set when it tripped the engine's
    size guards).  ``key``/``solvable``/``memo_hit`` describe the derived
    problem's memoised 0-round verdict, exactly as in
    :class:`ExpandOption`.
    """

    move: "RelaxationMove | None"
    result: SpeedupResult | None
    limit_hit: bool
    key: str
    solvable: bool
    memo_hit: bool


@dataclass(frozen=True)
class ChasePayload:
    """What one :class:`ChaseTask` produced.

    ``options[0]`` always describes the state problem's own speedup; the
    hardening options follow in move-generation order.
    ``hardenings_generated`` records how many restriction moves existed
    (equal to ``len(options) - 1`` -- unlike the lower-bound expansion, no
    prune drops options backend-side).
    """

    options: tuple[ChaseOption, ...]
    hardenings_generated: int


@dataclass(frozen=True)
class TaskResult:
    """A task's value plus the cache deltas a worker process accumulated."""

    value: object
    cache_entries: tuple[tuple[str, "CacheEntry"], ...]
    memo_entries: tuple[tuple[str, bool], ...]
    compute_s: float


@dataclass(frozen=True)
class BatchStats:
    """Measured execution profile of one batch.

    The ``*_s`` component fields are deltas over the batch of the owning
    engine's cache meters (:meth:`~repro.engine.cache.SpeedupCache.
    concurrency_stats`) plus the batch's own merge timer; under the
    ``process`` backend they cover exactly the parent-side serial work, and
    :attr:`serial_fraction` is their share of the batch wall clock -- the
    Amdahl ceiling on what more workers can buy.
    """

    backend: str
    tasks: int
    workers: int
    wall_s: float
    compute_s: float
    canonical_s: float
    lock_wait_s: float
    merge_s: float
    coalesced: int
    cache_hits: int
    cache_misses: int
    cache_entries_added: int
    memo_entries_added: int
    # Fault-recovery counters (see :mod:`repro.engine.resilience`): retries
    # of transiently-failed tasks, re-dispatches of innocent tasks after a
    # pool crash, pool rebuilds (crashes + deadline kills), deadline hits,
    # tasks quarantined as TaskFailure, and backend degradations.
    retries: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    deadline_hits: int = 0
    quarantined: int = 0
    degradations: int = 0

    @property
    def serial_fraction(self) -> float:
        """Parent-side serial seconds over wall seconds, clamped to [0, 1]."""
        if self.wall_s <= 0:
            return 0.0
        serial = self.canonical_s + self.lock_wait_s + self.merge_s
        return max(0.0, min(1.0, serial / self.wall_s))

    def to_dict(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "tasks": self.tasks,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "canonical_s": self.canonical_s,
            "lock_wait_s": self.lock_wait_s,
            "merge_s": self.merge_s,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries_added": self.cache_entries_added,
            "memo_entries_added": self.memo_entries_added,
            "retries": self.retries,
            "requeues": self.requeues,
            "pool_rebuilds": self.pool_rebuilds,
            "deadline_hits": self.deadline_hits,
            "quarantined": self.quarantined,
            "degradations": self.degradations,
            "serial_fraction": self.serial_fraction,
        }


# -- task execution (runs in the parent OR inside a worker) -------------------


def execute_task(engine: "Engine", task: Task) -> object:
    """Run one task on one engine; the single dispatch every backend shares."""
    if isinstance(task, SpeedupTask):
        return engine.speedup(task.problem, simplify=task.simplify)
    if isinstance(task, RunTask):
        return engine.run(task.problem, task.max_steps, relaxer=task.relaxer)
    # Lazy imports: the search drivers import this module for the task types.
    if isinstance(task, ExpandTask):
        from repro.search.driver import execute_expand_task

        return execute_expand_task(engine, task)
    from repro.search.upper import execute_chase_task

    return execute_chase_task(engine, task)


# -- the process-pool worker side ---------------------------------------------

_WORKER_ENGINE: "Engine | None" = None
_START_QUEUE: object | None = None


def _initialize_worker(config: EngineConfig, start_queue: object = None) -> None:
    """Build the per-process engine (called once per worker by the pool).

    The worker engine is serial (a worker must never spawn its own pool)
    and records its cache inserts and memo verdicts so
    :func:`_execute_in_worker` can return them as mergeable deltas.
    Building the engine also (re)activates the config's fault plan in this
    process, so scripted worker faults fire here; ``start_queue`` is the
    pool-shared channel workers announce task starts on (the crash-blame
    evidence the resilient dispatcher needs).
    """
    global _WORKER_ENGINE, _START_QUEUE
    from repro.engine.engine import Engine

    engine = Engine(config)
    for store in _stores(engine):
        store.start_recording()
    _WORKER_ENGINE = engine
    _START_QUEUE = start_queue
    faultinject.mark_worker()


def _execute_in_worker(task: Task) -> TaskResult:
    """Run one task on the worker's engine, draining the recorded deltas."""
    engine = _WORKER_ENGINE
    if engine is None:  # pool used without the initializer -- a bug
        raise RuntimeError("worker engine not initialised")
    start = time.perf_counter()
    value = execute_task(engine, task)
    compute_s = time.perf_counter() - start
    memo = engine.zero_round_memo
    return TaskResult(
        value=value,
        cache_entries=engine.cache.entries.drain_recorded(),
        memo_entries=memo.entries.drain_recorded() if memo is not None else (),
        compute_s=compute_s,
    )


def _execute_in_worker_at(index: int, attempt: int, task: Task) -> TaskResult:
    """Worker entry point of the resilient dispatcher.

    Announces the task start *before* doing anything that can fail -- the
    announcement is a synchronous pipe write, so even an immediate
    ``os._exit`` cannot lose it, and the parent can blame crashes on
    exactly the tasks that were executing.  Then fires any scripted fault
    for this ``(index, attempt)`` coordinate and runs the task normally.
    """
    queue = _START_QUEUE
    if queue is not None:
        queue.put((index, attempt))  # type: ignore[attr-defined]
    plan = faultinject.active_plan()
    if plan is not None:
        faultinject.fire_task_fault(plan, index, attempt)
    return _execute_in_worker(task)


def _process_context() -> "BaseContext | None":
    """Prefer ``fork`` (cheap start, inherited imports); None = default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _stores(engine: "Engine") -> list[JsonStore[Any]]:
    """The engine's keyed stores: the speedup cache's, then the memo's."""
    memo = engine.zero_round_memo
    return [engine.cache.entries] + ([memo.entries] if memo is not None else [])


def _sweep_cache_tmp_files(engine: "Engine") -> None:
    """Reclaim temp files killed workers abandoned in the stores' directories.

    Called when a process batch dies (KeyboardInterrupt included): the
    dispatcher has already terminated the workers, so any temp file they
    were writing carries a dead pid and sweeps cleanly; live files from
    unrelated processes are untouched.
    """
    for store in _stores(engine):
        if store.directory is not None:
            sweep_stale_tmp_files(store.directory)


def _run_process_pool(
    engine: "Engine", tasks: list[Task], workers: int
) -> tuple[list[object], float, float, FaultCounters]:
    """Execute tasks on a crash-surviving process pool.

    Returns ``(values, compute_s, merge_s, counters)``; value slots hold
    the task's result, or a :class:`~repro.engine.resilience.TaskFailure`
    for tasks the retry policy quarantined.  Worker engines are serial
    single-worker clones of the parent's configuration (sharing any
    ``cache_dir``); their recorded cache/memo deltas are merged into the
    parent's caches here, so a process batch leaves the parent exactly as
    warm as a serial one.  A task raising a deterministic error (an
    :class:`~repro.core.limits.EngineLimitError` above all) propagates it,
    like the serial loop; transient infrastructure faults are retried and
    recovered per the engine's :class:`~repro.engine.resilience.
    RetryPolicy`, degrading to in-parent execution when process isolation
    itself keeps failing.
    """
    worker_config = engine.config.replace(executor="serial", max_workers=1)
    policy = engine.config.retry_policy
    plan = engine.fault_plan
    counters = FaultCounters()

    def make_pool(pool_workers: int) -> tuple[ProcessPoolExecutor, object]:
        context = _process_context() or multiprocessing.get_context()
        queue = context.SimpleQueue()
        pool = ProcessPoolExecutor(
            max_workers=pool_workers,
            mp_context=context,
            initializer=_initialize_worker,
            initargs=(worker_config, queue),
        )
        return pool, queue

    def submit(
        pool: ProcessPoolExecutor, index: int, attempt: int, task: object
    ) -> "Future[object]":
        assert isinstance(task, (SpeedupTask, RunTask, ExpandTask, ChaseTask))
        return pool.submit(_execute_in_worker_at, index, attempt, task)

    def run_local(index: int, task: object) -> object:
        # The degraded path: execute serially on the parent engine, still
        # under the retry policy, so the batch completes even when process
        # pools cannot be built at all.
        assert isinstance(task, (SpeedupTask, RunTask, ExpandTask, ChaseTask))
        value, _elapsed = _timed_execute(engine, index, task, counters)
        return value

    try:
        slots = run_resilient_process_batch(
            tasks,
            workers=workers,
            policy=policy,
            plan=plan,
            counters=counters,
            make_pool=make_pool,
            submit=submit,
            run_local=run_local,
        )
    except BaseException:
        # The dispatcher already reclaimed the workers; their abandoned
        # temp files now carry dead pids and must not outlive the batch.
        _sweep_cache_tmp_files(engine)
        raise
    merge_start = time.perf_counter()
    memo = engine.zero_round_memo
    values: list[object] = []
    compute_s = 0.0
    for slot in slots:
        if isinstance(slot, TaskResult):
            for key, (form, stored) in slot.cache_entries:
                engine.cache.merge(key, form, stored)
            if memo is not None:
                for memo_key, solvable in slot.memo_entries:
                    memo.merge(memo_key, solvable)
            values.append(slot.value)
            compute_s += slot.compute_s
        else:
            # A TaskFailure, or a value computed in-parent by the degraded
            # path (whose cache effects landed directly on the engine).
            values.append(slot)
    merge_s = time.perf_counter() - merge_start
    return values, compute_s, merge_s, counters


# -- batch orchestration (runs in the parent) ---------------------------------


def _timed_execute(
    engine: "Engine", index: int, task: Task, counters: FaultCounters
) -> tuple[object, float]:
    """One in-parent task execution under the retry policy, timed.

    The serial backend runs every task through this; transient
    faults (an injected flake, an OS-level I/O error mid-derivation) retry
    with deterministic backoff, and a task that exhausts the policy comes
    back as a :class:`TaskFailure` value instead of killing the batch.
    """
    policy = engine.config.retry_policy
    plan = engine.fault_plan
    start = time.perf_counter()

    def attempt_run(attempt: int) -> object:
        if plan is not None:
            faultinject.fire_task_fault(plan, index, attempt)
        return execute_task(engine, task)

    value = execute_with_retry(
        attempt_run, index=index, policy=policy, counters=counters
    )
    return value, time.perf_counter() - start


class _BatchMeter:
    """Snapshot-and-delta wrapper producing one :class:`BatchStats`."""

    def __init__(self, engine: "Engine", backend: str, tasks: int, workers: int):
        self._engine = engine
        self._backend = backend
        self._tasks = tasks
        self._workers = workers
        self._cache_before = engine.cache.stats()
        self._conc_before = engine.cache.concurrency_stats()
        self._memo_before = engine.zero_round_stats()
        self._start = time.perf_counter()

    def finish(
        self,
        compute_s: float,
        merge_s: float,
        counters: FaultCounters | None = None,
    ) -> BatchStats:
        wall_s = time.perf_counter() - self._start
        cache_after = self._engine.cache.stats()
        conc_after = self._engine.cache.concurrency_stats()
        memo_after = self._engine.zero_round_stats()
        faults = counters if counters is not None else FaultCounters()
        return BatchStats(
            backend=self._backend,
            tasks=self._tasks,
            workers=self._workers,
            wall_s=wall_s,
            compute_s=compute_s,
            canonical_s=conc_after["canonical_s"] - self._conc_before["canonical_s"],
            lock_wait_s=conc_after["lock_wait_s"] - self._conc_before["lock_wait_s"],
            merge_s=merge_s,
            coalesced=int(conc_after["coalesced"] - self._conc_before["coalesced"]),
            cache_hits=cache_after["hits"] - self._cache_before["hits"],
            cache_misses=cache_after["misses"] - self._cache_before["misses"],
            cache_entries_added=cache_after["entries"] - self._cache_before["entries"],
            memo_entries_added=memo_after["entries"] - self._memo_before["entries"],
            retries=faults.retries,
            requeues=faults.requeues,
            pool_rebuilds=faults.pool_rebuilds,
            deadline_hits=faults.deadline_hits,
            quarantined=faults.quarantined,
            degradations=faults.degradations,
        )


def run_task_batch(
    engine: "Engine", tasks: list[Task]
) -> tuple[list[object], BatchStats]:
    """Execute a batch of tasks on the engine's configured backend.

    Values come back in task order.  Batches of one task (or one worker)
    run serially whatever the configured backend -- pools only ever cost
    there.
    """
    backend = engine.config.executor
    workers = engine._resolve_workers(len(tasks))
    pooled = len(tasks) > 1 and workers > 1
    meter = _BatchMeter(engine, backend, len(tasks), workers if pooled else 1)
    merge_s = 0.0
    counters = FaultCounters()
    if backend == "process" and pooled:
        values, compute_s, merge_s, counters = _run_process_pool(
            engine, tasks, workers
        )
    else:
        values = []
        compute_s = 0.0
        for index, task in enumerate(tasks):
            value, elapsed = _timed_execute(engine, index, task, counters)
            values.append(value)
            compute_s += elapsed
    return values, meter.finish(compute_s, merge_s, counters)


def speedup_batch(
    engine: "Engine", problems: list[Problem], simplify: bool
) -> tuple[list["SpeedupResult | TaskFailure"], BatchStats]:
    """Batch speedup derivation with cross-backend-consistent accounting.

    The serial backend routes through ``engine.speedup`` in order, so a
    twin of an earlier request is a plain cache hit.  The process backend
    coalesces here in the parent: probe every problem, dispatch exactly one
    leader task per missed canonical key (counted as the one true miss),
    count the other requests of that key as coalesced, and resolve them
    after the merge as translated hits -- the same hit and miss totals a
    serial run of the same batch reports.

    A slot holds a :class:`~repro.engine.resilience.TaskFailure` when the
    retry policy quarantined that problem's derivation; followers coalesced
    onto a quarantined leader inherit the failure (re-indexed) rather than
    re-deriving a task the policy just gave up on.
    """
    backend = engine.config.executor
    workers = engine._resolve_workers(len(problems))
    pooled = backend == "process" and len(problems) > 1 and workers > 1
    if not (pooled and engine.config.cache):
        # Serial (and degenerate process) batches: per-item speedup through
        # the shared cache, where a twin of an earlier item hits.
        tasks: list[Task] = [SpeedupTask(problem, simplify) for problem in problems]
        values, stats = run_task_batch(engine, tasks)
        return [_as_speedup_value(value) for value in values], stats

    meter = _BatchMeter(engine, backend, len(problems), workers)
    cache = engine.cache
    resolved: dict[int, "SpeedupResult | TaskFailure"] = {}
    leaders: dict[str, tuple[int, "CanonicalForm"]] = {}
    followers: list[tuple[int, str]] = []
    for index, problem in enumerate(problems):
        hit, form, key = cache.probe(problem, simplify)
        if hit is not None:
            resolved[index] = hit
            continue
        if key in leaders:
            cache.note_coalesced()
            followers.append((index, key))
        else:
            cache.note_dispatched_miss()
            leaders[key] = (index, form)
    leader_items = list(leaders.items())
    pool_tasks: list[Task] = [
        SpeedupTask(problems[index], simplify) for _key, (index, _form) in leader_items
    ]
    merge_s = 0.0
    compute_s = 0.0
    counters = FaultCounters()
    failed_keys: dict[str, TaskFailure] = {}
    if pool_tasks:
        values, compute_s, merge_s, counters = _run_process_pool(
            engine, pool_tasks, workers
        )
        merge_start = time.perf_counter()
        for (key, (index, form)), value in zip(leader_items, values):
            if isinstance(value, TaskFailure):
                failure = dataclasses.replace(value, index=index)
                resolved[index] = failure
                failed_keys[key] = failure
                continue
            result = _as_speedup_value(value)
            assert isinstance(result, SpeedupResult)
            # Re-merge under the leader's own key: the worker recorded the
            # entry too, but its batch may have evicted it before draining.
            resolved[index] = cache.merge(key, form, result)
        merge_s += time.perf_counter() - merge_start
    for index, key in followers:
        if key in failed_keys:
            resolved[index] = dataclasses.replace(failed_keys[key], index=index)
            continue
        hit, _form, _key = cache.probe(problems[index], simplify)
        if hit is None:
            # The merged entry was evicted before this follower resolved
            # (weight pressure from other entries); fall back to a direct
            # derivation rather than returning nothing.
            resolved[index] = engine.speedup(problems[index], simplify=simplify)
        else:
            resolved[index] = hit
    ordered = [resolved[index] for index in range(len(problems))]
    return ordered, meter.finish(compute_s, merge_s, counters)


def _as_speedup_value(value: object) -> "SpeedupResult | TaskFailure":
    assert isinstance(value, (SpeedupResult, TaskFailure))
    return value


def run_batch(
    engine: "Engine",
    problems: list[Problem],
    max_steps: int,
    relaxer: "Relaxer | None",
) -> tuple[list["EliminationResult | TaskFailure"], BatchStats]:
    """Batch elimination pipelines on the engine's configured backend."""
    from repro.core.sequence import EliminationResult

    tasks: list[Task] = [
        RunTask(problem, max_steps, relaxer) for problem in problems
    ]
    values, stats = run_task_batch(engine, tasks)
    results: list["EliminationResult | TaskFailure"] = []
    for value in values:
        assert isinstance(value, (EliminationResult, TaskFailure))
        results.append(value)
    return results, stats
