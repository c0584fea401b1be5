"""The beam loop both search directions share.

The speedup theorem runs both ways.  Chasing speedup steps until a chain
revisits one of its own problems (a pumpable fixed point) certifies a lower
bound (:mod:`repro.search.driver`); chasing them until a chain reaches a
0-round-solvable problem certifies an upper bound, Theorem 2 read forwards
(:mod:`repro.search.upper`).  Everything except that direction is the same
machinery, and lives here:

* :func:`beam_search` -- the depth loop: budget slice, one
  ``engine.execute_batch`` per depth, quarantined-task counting, per-depth
  deduplication by canonical key keeping the smaller score, the ``(score,
  last key)`` sort, the cut to ``beam_width``, the checkpoint write, and the
  fault-plan abort;
* :class:`BeamState` -- a partial certificate;
* :class:`Counters` -- the mutable tally behind a direction's frozen stats;
* :class:`Checkpoint` -- the resume file under ``cache_dir/checkpoints/``;
* :func:`zero_round_verdict` -- the memoised 0-round decision.

A direction is a :class:`BeamPolicy`: the expansion task it ships to the
executor, how an evaluated payload becomes candidates or a terminal result,
root handling, and the result it reports when the beam runs dry.
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Generic, TypeVar

if TYPE_CHECKING:
    from repro.engine.engine import Engine

from repro.core.canonical import canonical_hash
from repro.core.certificate import CertificateStep
from repro.core.problem import Problem
from repro.core.zero_round import ZeroRoundMemo, is_zero_round_solvable
from repro.engine.executor import Task
from repro.engine.resilience import TaskFailure
from repro.utils.jsonio import atomic_write_json, load_json, sweep_stale_tmp_files

R = TypeVar("R")

#: Schema version of the checkpoint files under ``cache_dir/checkpoints/``
#: (both directions; the ``search_`` / ``chase_`` filename prefixes keep
#: them apart).
CHECKPOINT_VERSION = 1


def zero_round_verdict(engine: Engine, problem: Problem, key: str) -> tuple[bool, bool]:
    """``(solvable, memo_hit)`` for a compressed problem with canonical hash ``key``.

    0-round solvability is invariant under compression (every witness uses
    only usable labels), so callers pass the compressed form, whose hash
    doubles as the search's dedup key.  The memo is shared engine-wide,
    so its global hit counter would attribute concurrent workloads to this
    search; ``memo_hit`` lets the caller count its own hits exactly.
    """
    orientations = engine.config.orientations
    memo = engine.zero_round_memo
    memo_key = ZeroRoundMemo.key_from_hash(key, orientations)
    verdict = None if memo is None else memo.lookup(memo_key)
    if verdict is not None:
        return verdict, True
    verdict = is_zero_round_solvable(problem, orientations=orientations)
    if memo is not None:
        memo.store(memo_key, verdict)
    return verdict, False


@dataclass(frozen=True)
class BeamState:
    """A partial certificate: current problem plus the chain that reached it.

    ``chain_keys`` holds the canonical hash of every chain problem's
    compressed form (the last is the state's dedup key).
    """

    problem: Problem
    steps: tuple[CertificateStep, ...]
    chain_keys: tuple[str, ...]

    @property
    def score(self) -> tuple[int, int]:
        return (self.problem.description_size, len(self.problem.labels))

    def extend(self, steps: tuple[CertificateStep, ...], key: str) -> BeamState:
        """This chain continued by ``steps``; ``key`` hashes their last problem."""
        return BeamState(steps[-1].problem, self.steps + steps, self.chain_keys + (key,))


class Counters:
    """The mutable tally behind a frozen stats dataclass, one count per field."""

    def __init__(self, names: Iterable[str]) -> None:
        self._counts = dict.fromkeys(names, 0)

    def __getitem__(self, name: str) -> int:
        return self._counts[name]

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount  # KeyError on a name the stats lack

    def add_zero_round(self, memo_hit: bool) -> None:
        self.add("zero_round_checks")
        self.add("zero_round_memo_hits", int(memo_hit))

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def restore(self, data: dict[str, Any]) -> None:
        self._counts = {name: int(data.get(name, 0)) for name in self._counts}


@dataclass(eq=False)
class BeamPolicy(ABC, Generic[R]):
    """One search direction: everything :func:`beam_search` leaves open.

    The class variables fix the direction's shape; the fields are the run's
    parameters.  ``fanout`` is the per-expansion move cap, named
    ``fanout_name`` in the checkpoint fingerprint and in error messages.
    """

    #: Checkpoint filename prefix, also named in the fault-plan abort.
    prefix: ClassVar[str]
    fanout_name: ClassVar[str]
    #: Charge one derivation per expansion at dispatch (a quarantined
    #: expansion still spends its budget); otherwise ``consume`` charges.
    charge_at_dispatch: ClassVar[bool]
    #: Prune candidates whose key was admitted at any earlier depth.
    prunes_revisits: ClassVar[bool]
    #: The fields of the direction's stats dataclass, in order.
    stat_names: ClassVar[tuple[str, ...]]

    engine: Engine
    problem: Problem
    beam_width: int
    fanout: int
    budget: int

    def __post_init__(self) -> None:
        self.counters = Counters(self.stat_names)

    @abstractmethod
    def root_result(self, root: BeamState) -> R | None:
        """The result when the root itself is terminal, else None."""

    @abstractmethod
    def task(self, state: BeamState) -> Task:
        """The executor task that expands ``state``."""

    @abstractmethod
    def consume(
        self, state: BeamState, payload: object, offer: Callable[[BeamState], None]
    ) -> R | None:
        """Turn one expansion's payload into candidates (``offer``) or a terminal."""

    @abstractmethod
    def exhausted(self, beam: list[BeamState]) -> R:
        """The result when no terminal appears within the depth/budget caps."""


class Checkpoint:
    """A search's resume file, ``cache_dir/checkpoints/<prefix>_<root key>.json``.

    It holds everything the beam loop keeps between depths -- the beam
    states, the ``visited`` keys of directions that prune revisits, the
    counters, and the parameter fingerprint -- written atomically after
    every completed depth, so a resumed run replays the remaining depths
    exactly and emits a byte-identical certificate.  A failed write (full
    disk) leaves the previous checkpoint intact: resuming then redoes more
    depths but converges on the identical result.  Unless ``enabled`` and
    the engine has a cache directory, every method is a no-op.
    """

    def __init__(
        self, policy: BeamPolicy[Any], root_key: str, max_steps: int, enabled: bool
    ) -> None:
        config = policy.engine.config
        self._policy = policy
        self._fingerprint: dict[str, object] = {
            "root_key": root_key,
            "max_steps": max_steps,
            "beam_width": policy.beam_width,
            policy.fanout_name: policy.fanout,
            "budget": policy.budget,
            "orientations": config.orientations,
        }
        self.path: Path | None = None
        if enabled and config.cache_dir is not None:
            # Root keys carry a "canon:" scheme prefix; keep filenames portable.
            name = f"{policy.prefix}_{root_key.replace(':', '_')}.json"
            path = self.path = Path(config.cache_dir) / "checkpoints" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            # Reclaim temp files that interrupted runs (either direction;
            # the directory is shared) abandoned next to the checkpoints: the
            # cache-wide sweep covers only the cache root and the 0-round memo
            # directory, so without this the directory would collect them.
            sweep_stale_tmp_files(path.parent)

    def _state_to_dict(self, state: BeamState) -> dict[str, object]:
        return {
            "problem": state.problem.to_dict(),
            "steps": [step.to_dict() for step in state.steps],
            "chain_keys": list(state.chain_keys),
        }

    def _state_from_dict(self, data: dict[str, Any]) -> BeamState:
        return BeamState(
            Problem.from_dict(data["problem"]),
            tuple(CertificateStep.from_dict(step) for step in data["steps"]),
            tuple(str(key) for key in data["chain_keys"]),
        )

    def write(self, depth: int, beam: list[BeamState], visited: set[str] | None) -> None:
        if self.path is None:
            return
        payload: dict[str, object] = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self._fingerprint,
            "depth": depth,
            "beam": [self._state_to_dict(state) for state in beam],
            "counters": self._policy.counters.counts(),
        }
        if visited is not None:
            payload["visited"] = sorted(visited)
        atomic_write_json(self.path, payload)

    def load(self) -> tuple[list[BeamState], set[str] | None, dict[str, Any], int] | None:
        """``(beam, visited, counters, completed_depth)``, or None to start fresh.

        Any corruption, schema mismatch, or *parameter* mismatch (a
        checkpoint from a run with a different beam width, budget, or root
        problem must never seed this one) reads as "no checkpoint": the
        search starts fresh, which is always correct, just slower.
        """
        payload = None if self.path is None else load_json(self.path)
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        if payload.get("fingerprint") != self._fingerprint:
            return None
        try:
            beam = [self._state_from_dict(state) for state in payload["beam"]]
            visited = None
            if self._policy.prunes_revisits:
                visited = {str(key) for key in payload["visited"]}
            depth = int(payload["depth"])
            counters = dict(payload["counters"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        if not beam or depth < 1:
            return None
        return beam, visited, counters, depth

    def discard(self) -> None:
        # A completed search owes no resume state; a stale checkpoint would
        # only cost the fingerprint comparison, but deleting it keeps the
        # directory an honest list of interrupted runs.
        if self.path is not None:
            with contextlib.suppress(OSError):
                self.path.unlink(missing_ok=True)


class _Frontier:
    """One depth's candidates, deduplicated by canonical key.

    A key reached twice keeps the smaller-scored state.  With ``visited``
    (directions that prune revisits) a key admitted at an earlier depth is
    pruned too, and every admitted key joins it.
    """

    def __init__(self, counters: Counters, visited: set[str] | None) -> None:
        self.candidates: list[BeamState] = []
        self._index: dict[str, int] = {}
        self._counters = counters
        self._visited = visited

    def offer(self, candidate: BeamState) -> None:
        key = candidate.chain_keys[-1]
        earlier = self._index.get(key)
        if earlier is not None or (self._visited is not None and key in self._visited):
            self._counters.add("duplicates_pruned")
            if earlier is not None and candidate.score < self.candidates[earlier].score:
                self.candidates[earlier] = candidate
            return
        if self._visited is not None:
            self._visited.add(key)
        self._index[key] = len(self.candidates)
        self.candidates.append(candidate)


def beam_search(
    policy: BeamPolicy[R], max_steps: int, checkpoint: bool, resume: bool
) -> R:
    """Run ``policy``'s direction from its problem to a terminal or a dry beam.

    Each depth expands the affordable prefix of the beam through the
    engine's executor (the CPU-heavy work runs backend-side; this loop only
    consumes the evaluated payloads, so counters and beam construction stay
    sequential and deterministic whatever the backend), then keeps the best
    ``beam_width`` deduplicated candidates.  With ``checkpoint`` (or
    ``resume``) and an engine ``cache_dir`` the beam is made durable after
    every depth; ``resume`` continues from such a checkpoint.  The
    checkpoint is deleted once the search returns normally.
    """
    engine = policy.engine
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if policy.beam_width < 1 or policy.fanout < 0 or policy.budget < 1:
        raise ValueError(
            f"beam_width and budget must be positive, {policy.fanout_name} >= 0"
        )
    root_key = canonical_hash(policy.problem.compressed())
    root = BeamState(policy.problem, (), (root_key,))
    store = Checkpoint(policy, root_key, max_steps, enabled=checkpoint or resume)

    terminal = policy.root_result(root)
    if terminal is not None:
        store.discard()
        return terminal
    counters = policy.counters
    beam = [root]
    visited = {root_key} if policy.prunes_revisits else None
    start_depth = 1
    restored = store.load() if resume else None
    if restored is not None:
        # The saved counters already include this run's root check (the
        # original run performed it too), so restoring them wholesale keeps
        # the final stats identical to an uninterrupted run.
        beam, visited, saved_counters, completed_depth = restored
        counters.restore(saved_counters)
        start_depth = completed_depth + 1

    plan = engine.fault_plan
    for depth in range(start_depth, max_steps + 1):
        # Every expansion costs at least one derivation, so the remaining
        # budget bounds how many states may expand this depth.
        to_expand = beam[: max(0, policy.budget - counters["speedup_calls"])]
        if not to_expand:
            break
        counters.add("states_expanded", len(to_expand))
        if policy.charge_at_dispatch:
            counters.add("speedup_calls", len(to_expand))
        payloads = engine.execute_batch([policy.task(state) for state in to_expand])

        frontier = _Frontier(counters, visited)
        for state, payload in zip(to_expand, payloads):
            if isinstance(payload, TaskFailure):
                # The expansion was quarantined by the retry policy (its
                # worker kept crashing or hanging); drop the state like a
                # limit hit -- its beam siblings carry on.
                counters.add("task_failures")
                continue
            terminal = policy.consume(state, payload, frontier.offer)
            if terminal is not None:
                store.discard()
                return terminal

        if not frontier.candidates:
            break
        frontier.candidates.sort(key=lambda state: (state.score, state.chain_keys[-1]))
        beam = frontier.candidates[: policy.beam_width]
        store.write(depth, beam, visited)
        if plan is not None and plan.should_abort_search(depth):
            # The deterministic stand-in for kill -9 in checkpoint/resume
            # tests: die right after the depth's state is durable.
            message = f"injected {policy.prefix} abort after depth {depth}"
            raise KeyboardInterrupt(message)

    store.discard()
    return policy.exhausted(beam)
