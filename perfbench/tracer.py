"""Layer spans recorded from outside the program, for the traced run.

The traced run wraps the public entry points of each layer listed in
:data:`BOUNDARIES`.  A function is replaced in the namespace of *every*
loaded ``repro`` module that holds it, not only where it is defined:
``engine.engine`` imports ``compute_speedup`` by name and ``engine.cache``
imports ``canonical_form`` by name, so patching the defining module alone
would miss those calls.  Methods are replaced on their class.

Spans nest on a stack (the benchmark runs everything on the ``serial``
backend in one thread).  A span's *self time* is its duration minus the
time its child spans cover; the self times of all layers inside an
operation add up to the part of the operation the trace covers
(``trace.coverage``).  Spans are kept in memory and written once, at exit,
as Chrome trace-event JSON.

Three costs the program's own ``KernelStats`` misses are charged here: the
whole ``half_step`` span (its existential node-configuration search is not
timed by ``KernelStats``), the whole ``SpeedupCache.store`` span (including
the ``description_size`` weight of the entry), and derivations that end in
``EngineLimitError`` (their ``KernelStats`` never reach a result, but the
wrappers hold the stats object the derivation was filling).
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

DERIVE_COLD = "derive-cold"
CLASSIFY_MIX = "classify-mix"
TWINS_WARM = "twins-warm"

_ALL = frozenset({DERIVE_COLD, CLASSIFY_MIX, TWINS_WARM})
_WRITE = frozenset({DERIVE_COLD, CLASSIFY_MIX})
_SEARCH = frozenset({CLASSIFY_MIX})


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point and the workloads that must reach it."""

    module: str
    attribute: str  # "function" or "Class.method"
    layer: str
    exercised_by: frozenset[str]


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("repro.core.canonical", "canonical_form", "canonical", _ALL),
    Boundary("repro.engine.cache", "SpeedupCache.acquire", "cache.acquire", _ALL),
    Boundary("repro.engine.cache", "SpeedupCache.store", "cache.store", _WRITE),
    Boundary("repro.core.speedup", "compute_speedup", "derive", _WRITE),
    Boundary("repro.core.speedup", "half_step", "half_step", _WRITE),
    Boundary("repro.core.speedup", "full_step", "full_step", _WRITE),
    Boundary("repro.core.problem", "Problem.compressed", "problem.compressed", _WRITE),
    Boundary("repro.core.zero_round", "is_zero_round_solvable", "zero_round", _SEARCH),
    Boundary(
        "repro.core.zero_round", "zero_round_with_orientations", "zero_round", _SEARCH
    ),
    Boundary("repro.core.zero_round", "check_zero_round_witness", "zero_round", _SEARCH),
    Boundary(
        "repro.core.zero_round",
        "ZeroRoundMemo.lookup",
        "zero_round",
        frozenset({CLASSIFY_MIX, TWINS_WARM}),
    ),
    Boundary(
        "repro.core.zero_round", "ZeroRoundMemo.check", "zero_round", frozenset({TWINS_WARM})
    ),
    Boundary("repro.search.moves", "generate_moves", "moves", _SEARCH),
    Boundary("repro.search.moves", "generate_hardenings", "hardenings", _SEARCH),
    Boundary("repro.search.classify", "classify", "search", _SEARCH),
    Boundary("repro.search.driver", "search_lower_bound", "search", _SEARCH),
    Boundary("repro.search.driver", "execute_expand_task", "search", _SEARCH),
    Boundary("repro.search.upper", "search_upper_bound", "search", _SEARCH),
    Boundary("repro.search.upper", "execute_chase_task", "search", _SEARCH),
    Boundary("repro.engine.executor", "run_task_batch", "executor", _SEARCH),
    Boundary("repro.core.certificate", "LowerBoundCertificate.verify", "verify", _SEARCH),
    Boundary("repro.core.certificate", "UpperBoundCertificate.verify", "verify", _SEARCH),
)

#: Entry points that must see no call at all on ``twins-warm``: its timed
#: work is pure cache and memo hits.
TWINS_FORBIDDEN = ("half_step", "full_step", "is_zero_round_solvable")

_FOLD_SUMS = ("enumeration_s", "matching_s", "domination_s", "matching_calls", "configs_streamed")


class Tracer:
    """In-memory span recorder plus the per-layer aggregates."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, float] = defaultdict(float)
        self.op_s = 0.0
        self.op_covered_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def _close(self, name: str, layer: str, start: float, end: float, child_s: float) -> None:
        duration = end - start
        self.events.append((name, layer, start, duration))
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][0] += duration

    def op(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as the root span of its layer spans."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.events.append((name, "op", start, end - start))
            self.op_s += end - start
            self.op_covered_s += frame[0]

    def _wrap(self, boundary: Boundary, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, layer = boundary.attribute, boundary.layer
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = hook.before(args, kwargs) if hook is not None else None
            frame = [0.0]
            tracer._stack.append(frame)
            result: Any = None
            error: BaseException | None = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.calls[name] += 1
                if hook is not None:
                    frame[0] += hook.after(tracer, state, result, error, start, end)
                tracer._close(name, layer, start, end, frame[0])

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in every ``repro`` namespace that holds it."""
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            if "." in boundary.attribute:
                class_name, method = boundary.attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(boundary, original))
                continue
            original = getattr(module, boundary.attribute)
            wrapper = self._wrap(boundary, original)
            holders = [
                (loaded, attribute)
                for loaded_name, loaded in list(sys.modules.items())
                if loaded_name == "repro" or loaded_name.startswith("repro.")
                for attribute, value in list(vars(loaded).items())
                if value is original
            ]
            for loaded, attribute in holders:
                self._patches.append((loaded, attribute, original))
                setattr(loaded, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def guard_failures(self, workload: str) -> list[str]:
        """Boundaries the workload should have reached but did not (or must not)."""
        failures = [
            f"wrapped boundary {boundary.attribute} recorded no call"
            for boundary in BOUNDARIES
            if workload in boundary.exercised_by and self.calls[boundary.attribute] == 0
        ]
        if workload == TWINS_WARM:
            failures.extend(
                f"{name} ran {self.calls[name]} time(s) in the timed region"
                for name in TWINS_FORBIDDEN
                if self.calls[name]
            )
        return failures

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        calls, totals, self_s = self.calls, self.totals, self.self_s

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        derivations = calls["compute_speedup"]
        return {
            "canonical.calls": (calls["canonical_form"], "count"),
            "canonical.self_s": (self_s["canonical"], "s"),
            "canonical.exact_fallback_ratio": (
                ratio(totals["canonical.exact"], calls["canonical_form"]), "1"
            ),
            "cache.acquire.self_s": (self_s["cache.acquire"], "s"),
            "cache.store.self_s": (self_s["cache.store"], "s"),
            "cache.hit_ratio": (
                ratio(totals["cache.hits"], calls["SpeedupCache.acquire"]), "1"
            ),
            "half_step.self_s": (self_s["half_step"], "s"),
            "fold.closed_sets_s": (totals["closed_sets_s"], "s"),
            "full_step.self_s": (self_s["full_step"], "s"),
            "fold.enumeration_s": (totals["enumeration_s"], "s"),
            "fold.matching_s": (totals["matching_s"], "s"),
            "fold.domination_s": (totals["domination_s"], "s"),
            "fold.matching_calls": (totals["matching_calls"], "count"),
            "fold.configs_streamed": (totals["configs_streamed"], "count"),
            "fold.frontier_peak": (self.peaks["frontier_peak"], "count"),
            "fold.materialise_s": (self_s["materialise"], "s"),
            "derived.labels": (totals["derived.labels"], "count"),
            "derived.edge_pairs": (totals["derived.edge_pairs"], "count"),
            "problem.compressed.self_s": (self_s["problem.compressed"], "s"),
            "zero_round.calls": (calls["is_zero_round_solvable"], "count"),
            "zero_round.self_s": (self_s["zero_round"], "s"),
            "zero_round.memo_hit_ratio": (
                ratio(totals["memo.hits"], calls["ZeroRoundMemo.lookup"]), "1"
            ),
            "moves.calls": (
                calls["generate_moves"] + calls["generate_hardenings"], "count"
            ),
            "moves.self_s": (self_s["moves"], "s"),
            "moves.generated": (totals["moves.generated"], "count"),
            "hardenings.self_s": (self_s["hardenings"], "s"),
            "search.self_s": (self_s["search"], "s"),
            "search.states_expanded": (totals["states_expanded"], "count"),
            "search.candidates_generated": (totals["candidates_generated"], "count"),
            "derive.limit_trips": (totals["limit_trips"], "count"),
            "derive.limit_trip_s": (totals["limit_trip_s"], "s"),
            "derive.useful_ratio": (
                ratio(derivations - totals["limit_trips"], derivations), "1"
            ),
            "executor.batches": (calls["run_task_batch"], "count"),
            "executor.self_s": (self_s["executor"], "s"),
            "executor.serial_fraction": (
                ratio(totals["batch.serial_s"], totals["batch.wall_s"]), "1"
            ),
            "verify.calls": (
                calls["LowerBoundCertificate.verify"]
                + calls["UpperBoundCertificate.verify"],
                "count",
            ),
            "verify.self_s": (self_s["verify"], "s"),
            "trace.coverage": (ratio(self.op_covered_s, self.op_s), "1"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
        }

    def layer_table(self) -> list[tuple[str, float]]:
        """Self time per layer, largest first, plus the uncovered remainder."""
        rows = sorted(self.self_s.items(), key=lambda item: -item[1])
        rows.append(("(not covered)", self.op_s - self.op_covered_s))
        return rows

    def write_chrome_trace(self, path: Path, metadata: dict[str, object]) -> None:
        """Write every recorded span as Chrome trace-event JSON."""
        origin = min((start for _, _, start, _ in self.events), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for name, layer, start, duration in self.events
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"traceEvents": events, "otherData": metadata}, handle)


# -- per-boundary hooks ---------------------------------------------------------


class _Hook:
    """Reads what a boundary's arguments and result say about its layer."""

    def before(self, args: tuple[Any, ...], kwargs: dict[str, Any]) -> Any:
        return None

    def after(
        self,
        tracer: Tracer,
        state: Any,
        result: Any,
        error: BaseException | None,
        start: float,
        end: float,
    ) -> float:
        """Record counters; return time to charge to a synthetic child span."""
        return 0.0


class _Canonical(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None and result.key.startswith("exact:"):
            tracer.totals["canonical.exact"] += 1
        return 0.0


class _Acquire(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None and result[0] is not None:
            tracer.totals["cache.hits"] += 1
        return 0.0


class _MemoLookup(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None:
            tracer.totals["memo.hits"] += 1
        return 0.0


class _Derive(_Hook):
    def after(self, tracer, state, result, error, start, end):
        from repro.core.limits import EngineLimitError

        if isinstance(error, EngineLimitError):
            tracer.totals["limit_trips"] += 1
            tracer.totals["limit_trip_s"] += end - start
        return 0.0


class _HalfStep(_Hook):
    """Charges the Galois closed-set fold out of the stats object passed in."""

    def before(self, args, kwargs):
        stats = kwargs.get("stats")
        return None if stats is None else (stats, stats.closed_sets_s)

    def after(self, tracer, state, result, error, start, end):
        if state is not None:
            stats, before = state
            tracer.totals["closed_sets_s"] += stats.closed_sets_s - before
        return 0.0


class _FullStep(_Hook):
    """Charges the full-step folds and splits off materialisation.

    ``compute_speedup`` hands ``full_step`` the ``KernelStats`` it fills, so
    the folds are read from that object even when the step raises.  The
    materialisation tail is the last phase of the step; it becomes a
    synthetic child span ending where the step ends, so ``full_step``'s self
    time excludes it.
    """

    def before(self, args, kwargs):
        stats = kwargs.get("stats")
        if stats is None:
            return None
        return stats, {field: getattr(stats, field) for field in (*_FOLD_SUMS, "materialise_s")}

    def after(self, tracer, state, result, error, start, end):
        if state is None:
            stats = None if result is None else result.kernel_stats
            before = {field: 0.0 for field in (*_FOLD_SUMS, "materialise_s")}
        else:
            stats, before = state
        if result is not None:
            tracer.totals["derived.labels"] += len(result.full.labels)
            tracer.totals["derived.edge_pairs"] += len(result.full.edge_constraint)
        if stats is None:
            return 0.0
        for field in _FOLD_SUMS:
            tracer.totals[field] += getattr(stats, field) - before[field]
        tracer.peaks["frontier_peak"] = max(
            tracer.peaks["frontier_peak"], stats.frontier_peak
        )
        materialise = stats.materialise_s - before["materialise_s"]
        if materialise > 0:
            tracer.events.append(("materialise", "materialise", end - materialise, materialise))
            tracer.self_s["materialise"] += materialise
        return materialise


class _SearchResult(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None:
            tracer.totals["states_expanded"] += result.stats.states_expanded
            tracer.totals["candidates_generated"] += result.stats.candidates_generated
        return 0.0


class _Moves(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None:
            tracer.totals["moves.generated"] += len(result)
        return 0.0


class _Batch(_Hook):
    def after(self, tracer, state, result, error, start, end):
        if result is not None:
            stats = result[1]
            tracer.totals["batch.serial_s"] += stats.serial_fraction * stats.wall_s
            tracer.totals["batch.wall_s"] += stats.wall_s
        return 0.0


_HOOKS: dict[str, _Hook] = {
    "canonical_form": _Canonical(),
    "SpeedupCache.acquire": _Acquire(),
    "ZeroRoundMemo.lookup": _MemoLookup(),
    "compute_speedup": _Derive(),
    "half_step": _HalfStep(),
    "full_step": _FullStep(),
    "search_lower_bound": _SearchResult(),
    "search_upper_bound": _SearchResult(),
    "generate_moves": _Moves(),
    "generate_hardenings": _Moves(),
    "run_task_batch": _Batch(),
}
