"""Fault-tolerant execution: retry policy, fault taxonomy, pool recovery.

PR 8's process backend had the classic distributed-systems failure mode: one
worker crash raised ``BrokenProcessPool`` in the parent and the *whole batch*
died, finished results included.  This module is the recovery layer under
:mod:`repro.engine.executor`:

* :class:`RetryPolicy` -- bounded retries with deterministic exponential
  backoff, per-task deadlines, and the quarantine/degradation thresholds.
  Backoff is deliberately jitter-free: two runs of the same batch with the
  same fault plan must behave identically, and the herd-thundering that
  jitter exists to break cannot happen inside one parent process.
* A fault taxonomy (:func:`is_transient_fault`): infrastructure faults --
  worker crashes (``BrokenProcessPool``), deadline kills, ``OSError``/pipe
  failures -- are *transient* and retried; deterministic engine outcomes,
  above all :class:`~repro.core.limits.EngineLimitError`, are not (retrying
  a size-guard trip re-trips it, so the error propagates exactly as the
  serial backend would).
* :class:`TaskFailure` -- the structured per-task failure that replaces
  batch death: a task whose transient faults exhaust the policy is
  *quarantined* and reported in its result slot while its batch neighbours
  complete normally.
* :func:`run_resilient_process_batch` -- the recovery loop proper: on a
  pool crash it identifies the tasks that had actually started (workers
  announce task starts over a context-shared queue, written synchronously
  so even an ``os._exit`` cannot lose the announcement), rebuilds the pool,
  and re-dispatches only the incomplete tasks.  When exactly one started
  task is unfinished the blame is definitive and its attempt budget is
  charged; when several are (the crasher and its innocent co-residents,
  indistinguishable from the parent), all become *suspects* and are re-run
  in solo isolation rounds, so the next crash convicts exactly one task and
  an innocent neighbour of a poison task is never quarantined for it.
  Hung tasks are detected against the policy deadline (always definitive)
  and the stuck workers reclaimed by terminating the pool; when pool
  rebuilding itself keeps failing the batch *degrades*: its remaining
  tasks run one after another in the parent rather than the batch dying.

This module is the one sanctioned home for broad infrastructure-exception
handling (see the ``broad-fault-swallow`` relint rule): everywhere else a
``BrokenProcessPool`` or a swallowed ``OSError`` is a bug, here it is the
input.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.limits import EngineLimitError
from repro.engine.faultinject import FaultPlan

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: How long a waiter on a single-flight cache latch sleeps before probing
#: whether the latch's leader thread is still alive (see
#: :meth:`repro.engine.cache.SpeedupCache.acquire`).  Long enough that legal
#: multi-minute derivations never pay more than bookkeeping, short enough
#: that a dead leader's waiters recover promptly in tests and services.
LATCH_PROBE_S = 5.0

#: Poll granularity of the deadline monitor (seconds).  Deadlines are
#: wall-clock bounds on runaway tasks, not precise timers; 50ms keeps the
#: monitor cheap while detecting hangs promptly.
_DEADLINE_POLL_S = 0.05

#: The fault kinds a :class:`TaskFailure` can carry.
FAILURE_KINDS = ("crash", "deadline", "error")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with deterministic backoff and deadlines.

    Attributes
    ----------
    max_retries:
        Transient faults tolerated per task before it is quarantined.  The
        task runs at most ``max_retries + 1`` times.
    backoff_base_s / backoff_factor / backoff_max_s:
        Deterministic exponential backoff between retry rounds:
        ``min(backoff_max_s, backoff_base_s * backoff_factor**attempt)``.
        No jitter, by design -- chaos tests must reproduce byte-identically.
    task_timeout_s:
        Per-task execution deadline.  Enforced only under the ``process``
        backend (a hung worker is terminated and its task retried); threads
        cannot be preempted, so thread/serial execution ignores it.
        ``None`` disables deadlines.
    max_pool_rebuilds:
        Pool crashes plus deadline kills tolerated per batch before the
        executor stops trusting process isolation and runs the rest of the
        batch serially in the parent.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    task_timeout_s: float | None = None
    max_pool_rebuilds: int = 5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")
        if self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive when given")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait before re-running a task's ``attempt``-th retry."""
        return min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt),
        )

    def replace(self, **overrides: object) -> "RetryPolicy":
        """A copy of this policy with the given fields changed."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task the batch gave up on.

    Occupies the task's result slot, so batch neighbours still return their
    values: the whole point of quarantine is that a poison task costs one
    slot, not the batch.  ``kind`` is ``"crash"`` (worker death),
    ``"deadline"`` (hung past the policy deadline), or ``"error"`` (a
    transient exception that kept recurring).
    """

    index: int
    kind: str
    message: str
    attempts: int
    quarantined: bool = True

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }


class FaultCounters:
    """Mutable per-batch fault bookkeeping, folded into ``BatchStats``."""

    __slots__ = (
        "retries",
        "requeues",
        "pool_rebuilds",
        "deadline_hits",
        "quarantined",
        "degradations",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.requeues = 0
        self.pool_rebuilds = 0
        self.deadline_hits = 0
        self.quarantined = 0
        self.degradations = 0


def is_transient_fault(exc: BaseException) -> bool:
    """Whether retrying the task could plausibly change the outcome.

    Deterministic engine outcomes -- :class:`EngineLimitError` above all --
    are never transient: the derivation that tripped a size guard trips it
    again, so retrying only burns budget and hides the real answer.
    Infrastructure faults (worker death, deadline/timeouts, OS-level I/O
    failures) are transient: the task itself may be fine.
    """
    if isinstance(exc, EngineLimitError):
        return False
    return isinstance(
        exc,
        (BrokenExecutor, OSError, EOFError, TimeoutError, FuturesTimeoutError),
    )


def execute_with_retry(
    run: Callable[[int], object],
    *,
    index: int,
    policy: RetryPolicy,
    counters: FaultCounters,
) -> object:
    """Run one task locally (serial/thread tier) under the retry policy.

    ``run`` receives the attempt number (fault plans key on it, so the
    caller's closure owns any injection).
    Transient faults are retried after deterministic backoff until the
    policy is exhausted, then reported as a :class:`TaskFailure`;
    non-transient exceptions propagate immediately, preserving the
    pre-resilience serial semantics for deterministic errors.
    """
    attempt = 0
    while True:
        try:
            return run(attempt)
        except Exception as exc:
            if not is_transient_fault(exc):
                raise
            attempt += 1
            counters.retries += 1
            if attempt > policy.max_retries:
                counters.quarantined += 1
                return TaskFailure(
                    index=index,
                    kind="error",
                    message=f"{type(exc).__name__}: {exc}",
                    attempts=attempt,
                    quarantined=True,
                )
            time.sleep(policy.backoff_s(attempt - 1))


# -- the resilient process-pool loop ------------------------------------------


def _kill_pool(pool: "ProcessPoolExecutor") -> None:
    """Reclaim a pool whose workers may be hung or dying.

    Terminating the worker processes first is what makes this safe for hung
    workers: ``shutdown`` alone would block forever on a worker stuck in a
    loop (and the executor's management thread is non-daemonic, so even
    interpreter exit would hang).  The private ``_processes`` access is the
    sanctioned escape hatch -- ``ProcessPoolExecutor`` exposes no supported
    way to preempt a running task.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                continue  # already reaped, or a non-process stand-in
    pool.shutdown(wait=False, cancel_futures=True)
    if processes:
        for process in list(processes.values()):
            try:
                process.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):
                continue  # join raced the executor's own reaping


def _drain_starts(queue: object, started_at: dict[int, float]) -> None:
    """Record task-start announcements workers have written so far.

    The single consumer makes the ``empty()`` / ``get()`` pair safe; a
    worker that crashed immediately after announcing is exactly the case
    the announcement exists for (synchronous pipe write, no feeder thread),
    so the parent can blame precisely the tasks that were executing.
    """
    while not queue.empty():  # type: ignore[attr-defined]
        try:
            index, _attempt = queue.get()  # type: ignore[attr-defined]
        except (OSError, EOFError, ValueError):
            return  # queue torn down under us mid-recovery
        if index not in started_at:
            started_at[index] = time.monotonic()


def run_resilient_process_batch(
    tasks: Sequence[object],
    *,
    workers: int,
    policy: RetryPolicy,
    plan: FaultPlan | None,
    counters: FaultCounters,
    make_pool: Callable[[int], tuple["ProcessPoolExecutor", object]],
    submit: Callable[["ProcessPoolExecutor", int, int, object], "Future[object]"],
    run_local: Callable[[int, object], object],
) -> list[object]:
    """Execute ``tasks`` on a crash-surviving process pool.

    Returns one slot per task: the worker's value, or a
    :class:`TaskFailure` for quarantined tasks.  Deterministic task
    exceptions are re-raised (lowest task index first) after the batch
    drains, matching the serial loop's behaviour for the same inputs.

    The recovery loop: dispatch every incomplete task, monitor with the
    policy deadline, and on each fault either retry the blamed task
    (transient, budget permitting), quarantine it (budget exhausted), or --
    when pool rebuilding itself keeps failing -- fall back to ``run_local``
    for the remainder of the batch, which runs each remaining task serially
    in the parent (still under the retry policy).
    """
    total = len(tasks)
    attempts = [0] * total
    values: dict[int, object] = {}
    errors: dict[int, BaseException] = {}
    # Tasks implicated in a multi-casualty pool crash.  Until cleared by a
    # clean solo run (or quarantined), each is re-dispatched alone so the
    # next crash convicts exactly one task.
    suspects: set[int] = set()
    rebuilds = 0
    pool: "ProcessPoolExecutor | None" = None
    queue: object | None = None

    def pending_indices() -> list[int]:
        return [i for i in range(total) if i not in values and i not in errors]

    def quarantine(index: int, kind: str, message: str) -> None:
        counters.quarantined += 1
        values[index] = TaskFailure(
            index=index,
            kind=kind,
            message=message,
            attempts=attempts[index],
            quarantined=True,
        )

    def degrade_to_local(reason: str) -> None:
        counters.degradations += 1
        for index in pending_indices():
            values[index] = run_local(index, tasks[index])
        del reason

    try:
        while True:
            pending = pending_indices()
            if not pending:
                break
            if pool is None:
                try:
                    pool, queue = make_pool(workers)
                except (OSError, RuntimeError):
                    # Cannot even build a pool (fork failures, fd/pid
                    # exhaustion): process isolation is gone, run in-parent.
                    pool = queue = None
                    degrade_to_local("pool construction failed")
                    break
            # Innocent-until-isolated: run every non-suspect together; once
            # only suspects remain, try them one per round so a crash has a
            # single possible culprit.
            cleared = [i for i in pending if i not in suspects]
            round_indices = cleared if cleared else [min(suspects)]
            futures: dict["Future[object]", int] = {}
            for index in round_indices:
                if plan is not None and plan.should_interrupt(index):
                    raise KeyboardInterrupt(
                        f"injected interrupt before dispatch of task {index}"
                    )
                futures[submit(pool, index, attempts[index], tasks[index])] = index
            started_at: dict[int, float] = {}
            crashed = False
            hung: int | None = None
            backoff = 0.0
            not_done = set(futures)
            while not_done:
                poll = None if policy.task_timeout_s is None else _DEADLINE_POLL_S
                done, not_done = wait(
                    not_done, timeout=poll, return_when=FIRST_COMPLETED
                )
                assert queue is not None
                _drain_starts(queue, started_at)
                for future in done:
                    index = futures[future]
                    try:
                        values[index] = future.result()
                    except BrokenExecutor:
                        crashed = True
                    except Exception as exc:
                        if not is_transient_fault(exc):
                            errors[index] = exc
                            continue
                        # The pool survived (the task raised, the worker
                        # lives): retry just this task.
                        attempts[index] += 1
                        counters.retries += 1
                        if attempts[index] > policy.max_retries:
                            quarantine(
                                index, "error", f"{type(exc).__name__}: {exc}"
                            )
                        else:
                            backoff = max(
                                backoff, policy.backoff_s(attempts[index] - 1)
                            )
                if crashed:
                    break
                if policy.task_timeout_s is not None:
                    now = time.monotonic()
                    live = {futures[future] for future in not_done}
                    for index, started in started_at.items():
                        if index in live and now - started > policy.task_timeout_s:
                            hung = index
                            break
                    if hung is not None:
                        break

            if crashed:
                assert pool is not None and queue is not None
                counters.pool_rebuilds += 1
                rebuilds += 1
                _drain_starts(queue, started_at)
                _kill_pool(pool)
                pool = queue = None
                unfinished = [i for i in futures.values() if i in pending_indices()]
                counters.requeues += len(unfinished)
                # A task that never announced a start was still queued when
                # the pool died: innocent, re-dispatched with its attempt
                # count (and hence its scripted faults) intact.  Of the
                # tasks that DID start, the crasher is certain only when it
                # is the sole one unfinished; otherwise all of them become
                # suspects for solo isolation rounds -- charging every
                # co-resident would eventually quarantine an innocent
                # neighbour of a poison task.
                blamable = [i for i in unfinished if i in started_at]
                if len(blamable) == 1:
                    (index,) = blamable
                    attempts[index] += 1
                    if attempts[index] > policy.max_retries:
                        quarantine(
                            index,
                            "crash",
                            "worker process died while executing this task",
                        )
                suspects.update(i for i in blamable if i not in values)
            elif hung is not None:
                assert pool is not None
                counters.deadline_hits += 1
                counters.pool_rebuilds += 1
                rebuilds += 1
                attempts[hung] += 1
                _kill_pool(pool)
                pool = queue = None
                unfinished = [i for i in futures.values() if i in pending_indices()]
                counters.requeues += len(unfinished)
                if attempts[hung] > policy.max_retries:
                    quarantine(
                        hung,
                        "deadline",
                        f"task exceeded its {policy.task_timeout_s}s deadline "
                        f"on every attempt",
                    )
            elif backoff > 0.0:
                time.sleep(backoff)

            # A suspect that completed, quarantined, or errored is resolved.
            suspects &= set(pending_indices())

            if rebuilds > policy.max_pool_rebuilds and pending_indices():
                if pool is not None:
                    _kill_pool(pool)
                    pool = queue = None
                degrade_to_local("pool rebuild budget exhausted")
                break
    except BaseException:
        # Interrupted (KeyboardInterrupt included) or a non-retryable
        # failure below: reclaim the workers so abandoned temp files become
        # dead-pid stale and the caller's sweep can collect them.
        if pool is not None:
            _kill_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True)

    if errors:
        raise errors[min(errors)]
    return [values[index] for index in range(total)]
