"""One run of one workload, in a fresh process started by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC [--setup-only]

``--t0`` is the launcher's ``time.monotonic()`` taken just before it started
this process; set-up time runs from there to the end of the warm-up (and,
for ``twins-warm``, the cache fill).  The last line of standard output is
one JSON object; ``run.py`` turns it into the benchmark's result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from inputs import (
    CLASSIFY_CASES,
    DERIVE_CASES,
    POOL_MAX_STEPS,
    TWIN_DERIVED_CASES,
    case_id,
    catalog_problem,
    random_pool,
    renamed,
    structural_digest,
)
from tracer import CLASSIFY_MIX, DERIVE_COLD, TWINS_WARM, Tracer

from repro.core.problem import Problem
from repro.core.vectorkernel import get_numpy, resolve_kernel
from repro.engine import Engine, EngineConfig

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

#: The kernel the benchmark pins; "vector" falls back to "mask" without numpy.
KERNEL = "vector"


def engine_config(max_derived_labels: int, max_candidate_configs: int) -> EngineConfig:
    """Every knob that changes what is measured, stated explicitly.

    ``serial`` is pinned because the default ``thread`` backend measured
    19-21 s against 15 s serial on weak-2-coloring[3] classify (the GIL
    serialises the pure-Python derivations, and the pool only adds
    overhead); a fault plan inherited from the environment would inject
    crashes into the measured run.
    """
    return EngineConfig(
        executor="serial",
        kernel=KERNEL,
        fault_plan=None,
        max_derived_labels=max_derived_labels,
        max_candidate_configs=max_candidate_configs,
        max_live_configs=1_000_000,
    )


def derive_config() -> EngineConfig:
    return engine_config(100_000, 8_000_000)


def classify_config() -> EngineConfig:
    return engine_config(2_000, 50_000)


class Mismatch(Exception):
    """An operation's output differs from its expected value."""


@dataclass
class Op:
    """One timed operation and the untimed check of its output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]  # returns a comparable record or raises Mismatch


def warm_up() -> None:
    """Pay the one-time costs (lazy imports, numpy start-up) before timing.

    The first ``classify`` in a process costs 0.19 s against 0.014 s warm;
    a cold 4-coloring[2] derivation runs the numpy materialisation path.
    The problems are fresh instances, so no cached per-problem state leaks
    into the timed inputs.
    """
    engine = Engine(classify_config())
    engine.classify(catalog_problem("indegree-handshake", 2), max_steps=3).bracket.verify()
    engine.speedup(catalog_problem("4-coloring", 2))


# -- the workloads ------------------------------------------------------------


class Workload:
    """A seeded source of passes: ``plan()`` builds one pass of operations."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def begin_pass(self) -> None:
        """Called right before a pass runs."""

    def plan(self) -> list[Op]:
        raise NotImplementedError


class DeriveCold(Workload):
    """Cold ``Engine.speedup`` on eleven catalog problems, fresh engine per pass."""

    name = DERIVE_COLD

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = EXPECTED["derive"]

    def plan(self) -> list[Op]:
        engine = Engine(derive_config())
        cases = list(DERIVE_CASES)
        self.rng.shuffle(cases)
        ops = []
        for name, delta in cases:
            label = case_id(name, delta)
            problem, _ = renamed(catalog_problem(name, delta), self.rng)
            ops.append(
                Op(label, partial(engine.speedup, problem), partial(self.check, label, problem))
            )
        return ops

    def check(self, label: str, problem: Problem, result: Any) -> dict[str, object]:
        if result.original != problem:
            raise Mismatch(f"{label}: result is for another problem")
        full = result.full
        record = {
            "labels": len(full.labels),
            "node_configs": len(full.node_constraint),
            "edge_pairs": len(full.edge_constraint),
            "digest": structural_digest(full),
        }
        if record != self.expected[label]:
            raise Mismatch(f"{label}: derived {record}, expected {self.expected[label]}")
        return record


def classify_and_verify(engine: Engine, problem: Problem, max_steps: int) -> Any:
    result = engine.classify(problem, max_steps=max_steps)
    return result, result.bracket.verify()


class ClassifyMix(Workload):
    """``Engine.classify`` plus ``bracket.verify()``, fresh engine per case."""

    name = CLASSIFY_MIX

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = EXPECTED["classify"]
        self.pool = random_pool()

    def plan(self) -> list[Op]:
        items: list[tuple[str, tuple[str, int] | Problem, int]] = [
            (case_id(name, delta), (name, delta), max_steps)
            for name, delta, max_steps in CLASSIFY_CASES
        ]
        items += [(problem.name, problem, POOL_MAX_STEPS) for problem in self.pool]
        self.rng.shuffle(items)
        ops = []
        for label, source, max_steps in items:
            if isinstance(source, Problem):
                problem, _ = renamed(source, self.rng)
            else:
                problem = catalog_problem(*source)
            engine = Engine(classify_config())
            ops.append(
                Op(
                    label,
                    partial(classify_and_verify, engine, problem, max_steps),
                    partial(self.check, label),
                )
            )
        return ops

    def check(self, label: str, value: Any) -> tuple[str, bool]:
        result, verdict = value
        bracket = result.bracket
        described = bracket.describe()
        searches = [result.lower_result, result.upper_result]
        if any(search is not None and search.stats.task_failures for search in searches):
            raise Mismatch(f"{label}: a search task failed")
        if not verdict.valid:
            raise Mismatch(f"{label}: certificate does not verify: {verdict.failures}")
        if label in self.expected:
            if described != self.expected[label]:
                raise Mismatch(f"{label}: bracket {described}, expected {self.expected[label]}")
        elif bracket.max_rounds is not None and (
            bracket.unbounded or bracket.min_rounds > bracket.max_rounds
        ):
            raise Mismatch(f"{label}: lower bound above upper bound: {described}")
        return described, verdict.valid


class TwinsWarm(Workload):
    """Label-renamed twins against a warm speedup cache and 0-round memo."""

    name = TWINS_WARM

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = EXPECTED["zero_round"]
        self.engine = Engine(derive_config())
        self.stored: dict[str, tuple[Problem, Any]] = {}
        for name, delta in DERIVE_CASES:
            problem = catalog_problem(name, delta)
            self.stored[case_id(name, delta)] = (problem, self.engine.speedup(problem))
        for name, delta in TWIN_DERIVED_CASES:
            self.engine.zero_round_solvable(self.stored[case_id(name, delta)][1].full)
        self._seen = self._counters()

    def _counters(self) -> tuple[int, int, int, int]:
        cache, memo = self.engine.cache_stats(), self.engine.zero_round_stats()
        return cache["hits"], cache["misses"], memo["hits"], memo["misses"]

    def begin_pass(self) -> None:
        self._seen = self._counters()

    def plan(self) -> list[Op]:
        items = [("speedup", case_id(*case)) for case in DERIVE_CASES]
        items += [("zero_round", case_id(*case)) for case in TWIN_DERIVED_CASES]
        self.rng.shuffle(items)
        ops = []
        for kind, label in items:
            problem, result = self.stored[label]
            if kind == "speedup":
                twin, mapping = renamed(problem, self.rng)
                run = partial(self.engine.speedup, twin)
                check = partial(self.check_speedup, label, twin, mapping)
            else:
                twin, _ = renamed(result.full, self.rng)
                run = partial(self.engine.zero_round_solvable, twin)
                check = partial(self.check_zero_round, label)
            ops.append(Op(f"{kind} {label}", run, check))
        return ops

    def _expect_hit(self, label: str, cache_hit: bool) -> None:
        seen, self._seen = self._seen, self._counters()
        delta = [after - before for after, before in zip(self._seen, seen)]
        wanted = [1, 0, 0, 0] if cache_hit else [0, 0, 1, 0]
        if delta != wanted:
            raise Mismatch(f"{label}: cache/memo (hits, misses) moved by {delta}, expected {wanted}")

    def check_speedup(
        self, label: str, twin: Problem, mapping: dict[str, str], result: Any
    ) -> str:
        self._expect_hit(label, cache_hit=True)
        _, stored = self.stored[label]
        back = {new: old for old, new in mapping.items()}
        if result.original != twin:
            raise Mismatch(f"{label}: translated result is for another problem")
        full, stored_full = result.full, stored.full
        if (full.labels, full.edge_constraint, full.node_constraint) != (
            stored_full.labels,
            stored_full.edge_constraint,
            stored_full.node_constraint,
        ):
            raise Mismatch(f"{label}: translated Pi_1 differs from the stored one")

        # The cache may translate through any isomorphism between the stored
        # input and the twin, i.e. the renaming composed with an automorphism
        # of the input.  Automorphisms permute the derived labels' meanings
        # among themselves, so the *sets* of meanings, mapped back through
        # the renaming, must equal the stored sets.
        translated_half = {
            name: frozenset(back[member] for member in members)
            for name, members in result.half_meaning.items()
        }
        translated_full = {
            frozenset(translated_half[name] for name in names)
            for names in result.full_meaning.values()
        }
        stored_full_meanings = {
            frozenset(stored.half_meaning[name] for name in names)
            for names in stored.full_meaning.values()
        }
        if set(translated_half.values()) != set(stored.half_meaning.values()):
            raise Mismatch(f"{label}: half-step meanings translated wrongly")
        if translated_full != stored_full_meanings:
            raise Mismatch(f"{label}: Pi_1 meanings translated wrongly")
        return "hit"

    def check_zero_round(self, label: str, solvable: bool) -> bool:
        self._expect_hit(label, cache_hit=False)
        if solvable != self.expected[label]:
            raise Mismatch(f"{label}: 0-round verdict {solvable}, expected {self.expected[label]}")
        return solvable


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DeriveCold, ClassifyMix, TwinsWarm)
}


# -- running ------------------------------------------------------------------


#: The reference's time on an idle 2-vCPU Intel Xeon host (Python 3.11).
#: Only a scale: any fixed value gives the same spreads and ratios.
REFERENCE_NOMINAL_S = 0.0082
#: Reference timings (one per operation, in run order) each factor uses.
#: Wide enough that the 11 s weak-2-coloring[3] classify is judged by the
#: host's speed over several seconds around it, not by the two references
#: at its ends.
REFERENCE_WINDOW = 33
_REFERENCE_WORDS = tuple(f"w{index:04d}" for index in range(300))


def reference() -> float:
    """Time a fixed piece of the benchmark's own work, no ``repro`` code.

    Tuple, string-hash and set work like the engine's, about 8 ms.  It runs
    after every operation, so a host that has turned slower or faster (the
    shared machine this benchmark was sized on swung 20-50% for minutes at a
    time) shows in the references taken next to each operation.  The cyclic
    collector is off while it runs: a collection there would cost time in
    proportion to the objects the program holds, not to the host's speed.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        pairs = {(a, b) for a in _REFERENCE_WORDS for b in _REFERENCE_WORDS[:200]}
        sum(1 for a, b in pairs if a < b)
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_factors(references: list[float]) -> list[float]:
    """Per operation: ``REFERENCE_NOMINAL_S`` over the median of the
    ``REFERENCE_WINDOW`` reference timings nearest to it in run order."""
    count = len(references)
    width = min(REFERENCE_WINDOW, count)
    factors = []
    for index in range(count):
        low = min(max(0, index - width // 2), count - width)
        factors.append(REFERENCE_NOMINAL_S / statistics.median(references[low : low + width]))
    return factors


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]
    records: list[Any]
    failures: list[str]
    references: list[float]


def run_pass(workload: Workload, ops: list[Op], tracer: Tracer | None = None) -> PassResult:
    """Time each operation; check its output, and time the reference, outside
    the timed region."""
    workload.begin_pass()
    latencies: list[float] = []
    records: list[Any] = []
    failures: list[str] = []
    references: list[float] = []
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            value = op.run() if tracer is None else tracer.op(op.label, op.run)
        except Exception as exc:  # every failure mode counts, none aborts the run
            value, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        else:
            error = None
        latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                records.append(op.check(value))
            except Mismatch as exc:
                error = str(exc)
        if error is not None:
            records.append(None)
            failures.append(error)
        references.append(reference())
    return PassResult(sum(latencies), latencies, records, failures, references)


def environment() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": getattr(get_numpy(), "__version__", None),
        "nproc": os.cpu_count(),
        "kernel": resolve_kernel(KERNEL),
        "executor": "serial",
    }


def measure(workload: Workload, seconds: float) -> dict[str, Any]:
    """Untraced passes until the time is used up (at least two).

    Every latency is scaled by its :func:`host_factors` factor before the
    metrics are taken, so they read in seconds of a host running the
    reference at ``REFERENCE_NOMINAL_S``.  The unscaled figures are printed.
    """
    passes: list[PassResult] = []
    labels: list[list[str]] = []
    started = time.perf_counter()
    last = 0.0
    while len(passes) < 2 or time.perf_counter() - started + last <= seconds:
        pass_start = time.perf_counter()
        ops = workload.plan()
        labels.append([op.label for op in ops])
        passes.append(run_pass(workload, ops))
        del ops
        last = time.perf_counter() - pass_start
    references = [ref for result in passes for ref in result.references]
    factors = iter(host_factors(references))
    scaled = [[latency * next(factors) for latency in result.latencies] for result in passes]
    latencies = [latency for pass_latencies in scaled for latency in pass_latencies]
    failures = [failure for result in passes for failure in result.failures]
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "wall_s": (statistics.median(sum(pass_latencies) for pass_latencies in scaled), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_label: dict[str, list[float]] = {}
    for pass_labels, pass_latencies in zip(labels, scaled):
        for label, latency in zip(pass_labels, pass_latencies):
            by_label.setdefault(label, []).append(latency)
    notes = [
        f"median {label}: {statistics.median(values) * 1000:.3f} ms"
        for label, values in sorted(by_label.items(), key=lambda item: -statistics.median(item[1]))[:12]
    ]
    raw = [latency for result in passes for latency in result.latencies]
    notes += [
        f"reference: median {statistics.median(references) * 1000:.3f} ms "
        f"(nominal {REFERENCE_NOMINAL_S * 1000:.1f} ms); unscaled: "
        f"wall_s {statistics.median(result.wall_s for result in passes):.4f}, "
        f"ops_per_s {len(raw) / sum(raw):.4f}, op_p50_ms {statistics.median(raw) * 1000:.4f}, "
        f"op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1000:.4f}",
    ]
    notes += [
        f"passes: {len(passes)} (each {len(passes[0].latencies)} operations); "
        f"latency samples: {len(latencies)}, {sum(1 for x in latencies if x > p90)} beyond p90",
        f"failed_ratio: {len(failures) / len(latencies):.4f} ({len(failures)} of {len(latencies)})",
    ]
    return {"metrics": metrics, "attempted": len(latencies), "failures": failures, "notes": notes}


def measure_traced(workload: Workload, seconds: float) -> dict[str, Any]:
    """Pairs of an untraced and a traced pass over identical inputs."""
    tracer = Tracer()
    ratios: list[float] = []
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    last = 0.0
    while not ratios or time.perf_counter() - started + last <= seconds:
        pair_start = time.perf_counter()
        state = workload.rng.getstate()
        plain_ops = workload.plan()
        workload.rng.setstate(state)
        traced_ops = workload.plan()
        plain = run_pass(workload, plain_ops)
        del plain_ops
        tracer.install()
        try:
            traced = run_pass(workload, traced_ops, tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced.latencies)
        failures += traced.failures
        failures += [
            f"{op.label}: traced output {b!r} differs from untraced {a!r}"
            for op, a, b in zip(traced_ops, plain.records, traced.records)
            if a != b
        ]
        ratios.append(traced.wall_s / plain.wall_s)
        last = time.perf_counter() - pair_start
    guard = tracer.guard_failures(workload.name)
    metrics = tracer.metrics(statistics.median(ratios))
    notes = [f"traced passes: {len(ratios)}; spans recorded: {len(tracer.events)}"]
    notes += [f"self time {layer:>20s}: {value:10.4f} s" for layer, value in tracer.layer_table()]
    notes += [f"GUARD: {failure}" for failure in guard]
    trace_path = BENCH_DIR / "out" / f"trace-{workload.name}-seed{workload.seed}.json"
    tracer.write_chrome_trace(trace_path, {"workload": workload.name, **environment()})
    notes.append(f"chrome trace: {trace_path.relative_to(BENCH_DIR.parent)}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "notes": notes,
        "guard_failures": guard,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warm_up()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    # Set-up is scaled like the latencies, by references taken right after it.
    setup_s *= host_factors([reference() for _ in range(REFERENCE_WINDOW)])[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcome = (measure_traced if args.trace else measure)(workload, args.seconds)
    for line in outcome["notes"]:
        print(line)
    for failure in outcome["failures"][:20]:
        print(f"FAILED: {failure}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": not outcome["failures"] and not outcome.get("guard_failures"),
                "attempted": outcome["attempted"],
                "failed": len(outcome["failures"]),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
                "setup_s": setup_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
