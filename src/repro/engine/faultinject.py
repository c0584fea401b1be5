"""Deterministic fault injection for chaos-testing the execution tier.

Fault-tolerance code is exactly the code that never runs in a healthy test
suite.  This module makes the failure paths *scriptable*: a fault plan names
which faults fire where, and every trigger is a pure function of
deterministic coordinates -- the batch index and attempt number of a task,
the ordinal of a cache write, the depth of a search checkpoint -- so a chaos
test reproduces the same crash in the same place on every run, instead of
relying on timing races.

A plan is a comma/semicolon-separated list of entries::

    kind@n        fire once at coordinate n
    kind@n*c      fire at coordinates n, for the first c attempts/ordinals

with kinds

``crash@i[*c]``
    The worker process executing batch-task ``i`` calls ``os._exit`` on its
    first ``c`` attempts (default 1).  Only fires inside process-pool
    workers -- crashing the parent would be self-defeating.
``hang@i[*c]``
    The worker executing task ``i`` sleeps far past any sane deadline on its
    first ``c`` attempts.  Only fires inside process-pool workers (a hung
    thread cannot be reclaimed).
``flake@i[*c]``
    Executing task ``i`` raises :class:`InjectedFault` (an ``OSError``, so
    classified transient/retryable) on its first ``c`` attempts.  Fires on
    every backend.
``enospc@k[*c]``
    The ``k``-th .. ``(k+c-1)``-th JSON cache write in this process fails
    like a full disk (the entry file is left untouched).
``corrupt@k[*c]``
    The ``k``-th .. ``(k+c-1)``-th JSON cache write writes syntactically
    invalid JSON instead of the payload (a torn write that completed its
    rename).
``interrupt@i``
    The parent batch loop raises ``KeyboardInterrupt`` just before
    dispatching task ``i`` (consumed once).
``searchabort@d``
    The beam search (either direction) raises ``KeyboardInterrupt``
    immediately after writing the checkpoint for depth ``d`` (consumed
    once) -- the deterministic stand-in for kill -9 in checkpoint/resume
    tests.

Plans activate through ``EngineConfig(fault_plan=...)`` or the
``REPRO_FAULT_PLAN`` environment variable; building an :class:`~repro.
engine.engine.Engine` whose config carries a plan activates it for the
whole process (including cache writes), and process-pool workers inherit the
plan through the pickled worker config, so scripted worker crashes fire
inside real workers.  Task-level triggers (crash/hang/flake) are stateless
-- the parent passes each dispatch's ``(index, attempt)`` -- so a worker
that dies takes no trigger bookkeeping with it.  Only the write ordinal and
the one-shot interrupt entries hold (locked) state, in the process that
fires them.

Production code never imports the trigger helpers; the executor and driver
call them only when a plan is active, and ``parse_fault_plan(None)`` is
``None``, so the fault-free hot path costs one ``is None`` check.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.utils import jsonio

#: Exit status of an injected worker crash (distinguishable from a real
#: signal or interpreter error in pool post-mortems).
CRASH_EXIT_CODE = 77

#: Upper bound on an injected hang.  Deadlines are expected to reclaim the
#: worker long before this; the bound only caps the damage when a test
#: forgets to configure one.
HANG_S = 60.0

#: Fault kinds keyed by task ``(index, attempt)``.
TASK_KINDS = ("crash", "hang", "flake")
#: Fault kinds keyed by the process-wide cache-write ordinal.
WRITE_KINDS = ("enospc", "corrupt")
#: One-shot fault kinds consumed in the process that fires them.
ONESHOT_KINDS = ("interrupt", "searchabort")

FAULT_KINDS = TASK_KINDS + WRITE_KINDS + ONESHOT_KINDS


class InjectedFault(OSError):
    """A scripted transient fault (``OSError``, hence retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed plan entry: ``kind`` fires at ``index`` for ``count`` hits."""

    kind: str
    index: int
    count: int = 1


class FaultPlan:
    """A parsed fault plan: stateless task triggers, stateful ordinals.

    Task faults are decided purely from ``(index, attempt)``; write faults
    consume a per-process write ordinal; ``interrupt``/``searchabort`` are
    consumed once.  The instance is picklable (the mutable counters reset in
    the unpickled copy, which is exactly right: a worker process starts its
    own write ordinal at zero).
    """

    def __init__(self, specs: tuple[FaultSpec, ...], source: str):
        self.specs = specs
        self.source = source
        self._lock = threading.Lock()
        self._write_ordinal = 0
        self._consumed: set[tuple[str, int]] = set()

    def __reduce__(self) -> tuple[object, ...]:
        return (FaultPlan, (self.specs, self.source))

    def __repr__(self) -> str:
        return f"FaultPlan({self.source!r})"

    # -- stateless task triggers ----------------------------------------------

    def task_fault(self, index: int, attempt: int) -> str | None:
        """The fault kind scripted for this task dispatch, if any.

        Pure in ``(index, attempt)``: a re-dispatch with the same attempt
        number re-fires (the parent owns attempt accounting, so worker death
        cannot lose a scripted fault), and a later attempt runs clean.
        """
        for spec in self.specs:
            if spec.kind in TASK_KINDS and spec.index == index and attempt < spec.count:
                return spec.kind
        return None

    # -- stateful triggers ----------------------------------------------------

    def write_fault(self, path: Path) -> str | None:
        """Consume one write ordinal; the scripted write fault, if any."""
        del path  # faults are keyed by ordinal, not destination
        with self._lock:
            ordinal = self._write_ordinal
            self._write_ordinal += 1
        for spec in self.specs:
            if (
                spec.kind in WRITE_KINDS
                and spec.index <= ordinal < spec.index + spec.count
            ):
                return spec.kind
        return None

    def _consume_oneshot(self, kind: str, index: int) -> bool:
        for spec in self.specs:
            if spec.kind == kind and spec.index == index:
                with self._lock:
                    if (kind, index) in self._consumed:
                        return False
                    self._consumed.add((kind, index))
                return True
        return False

    def should_interrupt(self, index: int) -> bool:
        """True exactly once when dispatch of task ``index`` is scripted to die."""
        return self._consume_oneshot("interrupt", index)

    def should_abort_search(self, depth: int) -> bool:
        """True exactly once after the checkpoint for ``depth`` is written."""
        return self._consume_oneshot("searchabort", depth)


def parse_fault_plan(spec: str | None) -> FaultPlan | None:
    """Parse the plan grammar; ``None``/blank means no plan.

    Raises ``ValueError`` on malformed entries, so a typo in
    ``REPRO_FAULT_PLAN`` fails engine construction loudly instead of
    silently running a fault-free "chaos" test.
    """
    if spec is None or not spec.strip():
        return None
    entries: list[FaultSpec] = []
    for raw in spec.replace(";", ",").split(","):
        entry = raw.strip()
        if not entry:
            continue
        kind, _, coords = entry.partition("@")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {entry!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if not coords:
            raise ValueError(f"fault entry {entry!r} is missing '@index'")
        index_text, _, count_text = coords.partition("*")
        try:
            index = int(index_text)
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(f"malformed fault coordinates in {entry!r}") from None
        if index < 0 or count < 1:
            raise ValueError(
                f"fault entry {entry!r} needs index >= 0 and count >= 1"
            )
        entries.append(FaultSpec(kind=kind, index=index, count=count))
    if not entries:
        return None
    return FaultPlan(tuple(entries), spec)


# -- process-wide activation --------------------------------------------------

_active_lock = threading.Lock()
_ACTIVE: FaultPlan | None = None
_IN_WORKER = False


def activate(plan: FaultPlan | None) -> None:
    """Install ``plan`` as this process's active plan (None deactivates).

    Engine construction calls this when its config carries a plan; the
    write-fault hook reaches the JSON layer through
    :func:`repro.utils.jsonio.set_write_fault_hook`, keeping ``utils``
    ignorant of the engine package.
    """
    global _ACTIVE
    with _active_lock:
        _ACTIVE = plan
        jsonio.set_write_fault_hook(None if plan is None else plan.write_fault)


def active_plan() -> FaultPlan | None:
    with _active_lock:
        return _ACTIVE


def mark_worker() -> None:
    """Flag this process as a pool worker (enables crash/hang injection)."""
    global _IN_WORKER
    _IN_WORKER = True


def fire_task_fault(plan: FaultPlan, index: int, attempt: int) -> None:
    """Execute the scripted fault for this task dispatch, if any.

    ``crash`` and ``hang`` fire only inside process-pool workers (see
    :func:`mark_worker`): in the parent they would kill or wedge the very
    process whose recovery is under test.  ``flake`` raises everywhere.
    """
    kind = plan.task_fault(index, attempt)
    if kind is None:
        return
    if kind == "flake":
        raise InjectedFault(
            f"injected transient fault (task {index}, attempt {attempt})"
        )
    if not _IN_WORKER:
        return
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    # hang: sleep in slices so an interrupted worker still dies promptly.
    deadline = time.monotonic() + HANG_S
    while time.monotonic() < deadline:
        time.sleep(0.05)
