"""Machine-readable speedup benchmarks: writes ``BENCH_speedup.json``.

Times one full ``speedup()`` derivation per catalog problem -- cold (uncached
kernel), warm (engine cache hit) and, where feasible, the frozen pre-kernel
reference path (``repro.core._legacy``) -- and emits a JSON report so the
performance trajectory is tracked across PRs (CI uploads the file as a
build artifact; nothing gates on it).

With ``--search`` the report additionally times whole
``search_lower_bound`` runs (the mask-native move generation and the
0-round memo are exactly what those exercise) and embeds the frozen PR-3
baseline rows for the before/after comparison.

With ``--classify`` the report additionally times whole two-sided
``classify`` runs (lower-bound search plus upper-bound chase) over the
fast catalog families, recording each bracket and its independent
re-verification time.

With ``--backend NAME`` (repeatable) the report additionally times the
batch API (``speedup_many``) over a CPU-heavy catalog batch on each named
execution backend, emitting the per-batch Amdahl instrumentation
(``serial_fraction`` and its components: canonical hashing, cache-lock
wait, coalesce wait, result merge) from ``Engine.last_batch_stats()``.

Each completing row carries the per-fold timing breakdown (closed sets,
enumeration, matching, domination, materialise) from
:class:`repro.core.vectorkernel.KernelStats`, and the report embeds the
frozen pre-vector mask-kernel baseline rows (``kernel_baseline_pr8``) for
the before/after comparison.

Usage::

    python benchmarks/run_speedup_bench.py [--quick] [--search] [--classify]
        [--backend serial --backend thread --backend process]
        [--workers N] [--output BENCH_speedup.json]

``--quick`` restricts the run to the cases cheap enough for a CI smoke job
(everything except the formerly intractable derivations, which take seconds
to minutes even on the kernel -- including 5-coloring at delta 2, whose
streaming full step computes a 7577-label derivation in minutes where the
retired grid guard used to refuse it instantly).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core import _legacy
from repro.core.speedup import EngineLimitError, compute_speedup
from repro.engine import EXECUTOR_NAMES, Engine, EngineConfig
from repro.problems.catalog import get_problem

# (name, delta, quick, run_legacy): `quick` keeps the case in --quick runs;
# `run_legacy` times the pre-kernel reference for a speedup ratio (off for
# derivations the legacy path cannot finish in reasonable time).
CASES: list[tuple[str, int, bool, bool]] = [
    ("sinkless-coloring", 5, True, True),
    ("3-coloring", 3, True, True),
    ("mis", 3, True, True),
    ("maximal-matching", 3, True, True),
    ("weak-2-coloring", 4, True, True),
    ("superweak-2-coloring", 3, True, True),
    # The largest catalog derivation the legacy path completes: the headline
    # kernel-vs-legacy ratio (acceptance: >= 3x).
    ("4-coloring", 2, True, True),
    # Formerly intractable under the string path (days of wall clock inside
    # the size guards); the kernel completes them in seconds.
    ("weak-3-coloring", 2, False, False),
    ("superweak-3-coloring", 2, False, False),
    # Refused a-priori by the legacy grid guard; the streaming full step
    # computes the 7577-label derivation under the default work/frontier
    # caps (minutes -- dominated by materialising ~25M edge configs).
    ("5-coloring", 2, False, True),
]

# Lower-bound search cases: (name, delta, max_steps, quick).  The weak-3 run
# is the ISSUE-5 acceptance case: 976-label Pi_1, where move generation and
# 0-round re-checks used to dominate.
SEARCH_CASES: list[tuple[str, int, int, bool]] = [
    ("sinkless-orientation", 3, 4, True),
    ("mis", 3, 2, True),
    ("weak-3-coloring", 2, 2, False),
]

# Two-sided classify cases: (name, delta, max_steps, quick), covering all
# three bracket shapes (tight / open / Omega(log n)).  The superweak row is
# the stress case: its chase fans out over a 10-label derived problem and
# dominates the full run.
CLASSIFY_CASES: list[tuple[str, int, int, bool]] = [
    ("indegree-handshake", 2, 3, True),
    ("sinkless-orientation", 3, 4, True),
    ("mis", 2, 2, True),
    ("3-coloring", 2, 2, True),
    ("superweak-2-coloring", 2, 2, False),
]

# Frozen baseline, measured once on the PR-3 tree (commit 22095a5) with the
# same engine guards (max_derived_labels=20k, max_candidate_configs=500k):
# before the mask-native move generator and the 0-round memo, the weak-3
# search died in string-surface move generation (no result within the
# 600-second cap).  Kept verbatim so every report carries the before/after
# comparison the ISSUE-5 acceptance asks for.
# Backend batch cases: (name, delta, quick).  Every row is a genuinely
# CPU-heavy derivation (no trivial sub-millisecond cases) so the batch
# measures compute scaling, not dispatch overhead; all problems are
# canonically distinct, so a cold cache dispatches one derivation each.
BACKEND_BATCH: list[tuple[str, int, bool]] = [
    ("weak-2-coloring", 3, True),
    ("weak-2-coloring", 4, True),
    ("superweak-2-coloring", 3, True),
    ("3-coloring", 3, True),
    ("4-coloring", 2, True),
    ("mis", 3, True),
    ("maximal-matching", 3, True),
    ("sinkless-coloring", 5, True),
    # The two formerly intractable derivations dominate the full batch;
    # they are what a multi-core process pool is *for*.
    ("weak-3-coloring", 2, False),
    ("superweak-3-coloring", 2, False),
]

# Frozen pre-vector baseline, measured once on the PR-8 tree (commit
# 066f63e) with the mask kernel and the a-priori grid guard still in place:
# the numbers the vector tier and the streaming full step are measured
# against.  5-coloring's ``observed`` is the refused candidate grid --
# the derivation itself was never attempted.  Kept verbatim (PR-5 pattern)
# so every report carries the before/after comparison.
KERNEL_BASELINE_PR8: list[dict] = [
    {"problem": "weak-3-coloring", "delta": 2, "kernel": "mask",
     "cold_s": 1.253222, "status": "ok", "derived_labels": 976},
    {"problem": "superweak-3-coloring", "delta": 2, "kernel": "mask",
     "cold_s": 1.464015, "status": "ok", "derived_labels": 976},
    {"problem": "5-coloring", "delta": 2, "kernel": "mask",
     "cold_s": 0.056129, "status": "limit:max_candidate_configs",
     "observed_grid": 28_716_831},
]

SEARCH_BASELINE_PR3: list[dict] = [
    {"problem": "sinkless-orientation", "delta": 3, "max_steps": 4,
     "search_s": 0.004, "kind": "fixed-point", "bound": 2, "verified": True},
    {"problem": "mis", "delta": 3, "max_steps": 2,
     "search_s": 0.177, "kind": "chain", "bound": 2, "verified": True},
    {"problem": "weak-3-coloring", "delta": 2, "max_steps": 2,
     "search_s": 600.0, "kind": "timeout", "bound": None, "verified": False},
]


def _time_call(fn) -> tuple[float, str, object]:
    start = time.perf_counter()
    try:
        result = fn()
        return time.perf_counter() - start, "ok", result
    except EngineLimitError as error:
        return time.perf_counter() - start, f"limit:{error.limit_name}", None


def bench_case(
    name: str,
    delta: int,
    run_legacy: bool,
    warm_rounds: int = 3,
) -> dict:
    """Cold/warm/legacy timings for one catalog ``speedup()`` call."""
    problem = get_problem(name, delta)
    engine = Engine()
    cold_s, status, result = _time_call(lambda: engine.speedup(problem))

    record: dict = {
        "problem": name,
        "delta": delta,
        "status": status,
        "cold_s": round(cold_s, 6),
    }
    if result is not None and result.kernel_stats is not None:
        # Per-fold wall-clock breakdown of the cold derivation (the cache
        # re-attaches the counters to the stored copy on the cold path).
        record["fold_s"] = result.kernel_stats.to_dict()
    if result is not None:
        record["derived_labels"] = len(result.full.labels)
        record["derived_node_configs"] = len(result.full.node_constraint)
        warm = float("inf")
        for _ in range(warm_rounds):  # best-of to shed timer noise
            start = time.perf_counter()
            engine.speedup(problem)
            warm = min(warm, time.perf_counter() - start)
        record["warm_s"] = round(warm, 6)
        record["warm_speedup"] = round(cold_s / max(warm, 1e-9), 1)

    if run_legacy:
        legacy_s, legacy_status, _ = _time_call(
            lambda: _legacy.compute_speedup(problem)
        )
        record["legacy_s"] = round(legacy_s, 6)
        record["legacy_status"] = legacy_status
        if status == "ok" and legacy_status == "ok":
            record["kernel_speedup"] = round(legacy_s / max(cold_s, 1e-9), 1)
    return record


def bench_search_case(name: str, delta: int, max_steps: int) -> dict:
    """Time one full lower-bound search run plus its independent re-verify."""
    problem = get_problem(name, delta)
    engine = Engine(
        EngineConfig(
            max_derived_labels=20_000,
            max_candidate_configs=500_000,
        )
    )
    start = time.perf_counter()
    result = engine.search_lower_bound(problem, max_steps=max_steps)
    search_s = time.perf_counter() - start
    record = {
        "problem": name,
        "delta": delta,
        "max_steps": max_steps,
        "search_s": round(search_s, 6),
        "kind": result.kind,
        "bound": result.bound,
        "stats": result.stats.to_dict(),
    }
    if result.certificate is not None:
        start = time.perf_counter()
        record["verified"] = result.certificate.verify().valid
        record["verify_s"] = round(time.perf_counter() - start, 6)
    return record


def run_search_bench(
    cases: list[tuple[str, int, int, bool]] | None = None,
    quick: bool = False,
) -> list[dict]:
    """Run the search suite; returns the rows for the report."""
    selected = [
        case for case in (cases if cases is not None else SEARCH_CASES)
        if not quick or case[3]
    ]
    return [
        bench_search_case(name, delta, max_steps)
        for name, delta, max_steps, _ in selected
    ]


def bench_classify_case(name: str, delta: int, max_steps: int) -> dict:
    """Time one two-sided ``classify`` run plus its independent re-verify.

    The size guards are tighter than the search bench's (the chase fans out
    over hardenings of already-derived problems; hopeless states should
    fail fast, exactly as in the landscape survey).
    """
    problem = get_problem(name, delta)
    engine = Engine(
        EngineConfig(
            max_derived_labels=2_000,
            max_candidate_configs=50_000,
        )
    )
    start = time.perf_counter()
    result = engine.classify(problem, max_steps=max_steps)
    classify_s = time.perf_counter() - start
    bracket = result.bracket
    record = {
        "problem": name,
        "delta": delta,
        "max_steps": max_steps,
        "classify_s": round(classify_s, 6),
        "bracket": bracket.describe(),
        "verdict": bracket.verdict,
        "min_rounds": bracket.min_rounds,
        "max_rounds": bracket.max_rounds,
        "unbounded": bracket.unbounded,
    }
    if bracket.lower is not None or bracket.upper is not None:
        start = time.perf_counter()
        record["verified"] = bracket.verify().valid
        record["verify_s"] = round(time.perf_counter() - start, 6)
    return record


def run_classify_bench(
    cases: list[tuple[str, int, int, bool]] | None = None,
    quick: bool = False,
) -> list[dict]:
    """Run the classify suite; returns the rows for the report."""
    selected = [
        case for case in (cases if cases is not None else CLASSIFY_CASES)
        if not quick or case[3]
    ]
    return [
        bench_classify_case(name, delta, max_steps)
        for name, delta, max_steps, _ in selected
    ]


def bench_backend_case(backend: str, workers: int | None, quick: bool = False) -> dict:
    """Time one cold ``speedup_many`` batch on ``backend``.

    A fresh engine per backend keeps the cache cold, so every distinct
    problem costs one real derivation; the row carries the batch's Amdahl
    decomposition (``serial_fraction`` = serialised canonical hashing +
    lock wait + merge time over wall clock) straight from
    ``Engine.last_batch_stats()``.
    """
    problems = [
        get_problem(name, delta)
        for name, delta, is_quick in BACKEND_BATCH
        if not quick or is_quick
    ]
    engine = Engine(
        EngineConfig(
            executor=backend,
            max_workers=workers,
            max_derived_labels=20_000,
            max_candidate_configs=500_000,
        )
    )
    start = time.perf_counter()
    results = engine.speedup_many(problems)
    wall_s = time.perf_counter() - start
    stats = engine.last_batch_stats()
    assert stats is not None
    record: dict = {
        "problems": len(problems),
        "derived_ok": sum(1 for r in results if r is not None),
        "batch_wall_s": round(wall_s, 6),
    }
    for key, value in stats.to_dict().items():
        record[key] = round(value, 6) if isinstance(value, float) else value
    return record


def run_backend_bench(
    backends: list[str],
    workers: int | None = None,
    quick: bool = False,
) -> list[dict]:
    """Run the backend batch on each requested backend; returns the rows."""
    return [
        bench_backend_case(backend, workers, quick=quick)
        for backend in backends
    ]


def run_bench(
    cases: list[tuple[str, int, bool, bool]] | None = None,
    quick: bool = False,
    warm_rounds: int = 3,
    search: bool = False,
    classify: bool = False,
    backends: list[str] | None = None,
    workers: int | None = None,
) -> dict:
    """Run the suite and return the JSON-ready report."""
    selected = [
        case for case in (cases if cases is not None else CASES)
        if not quick or case[2]
    ]
    # Pay the one-time numpy ufunc warmup outside the timed rows, so the
    # first cold case is not charged for it.
    compute_speedup(get_problem("sinkless-orientation", 3))
    results = [
        bench_case(name, delta, run_legacy, warm_rounds=warm_rounds)
        for name, delta, _, run_legacy in selected
    ]
    ratios = [r["kernel_speedup"] for r in results if "kernel_speedup" in r]
    legacy_done = [r for r in results if r.get("legacy_status") == "ok"]
    report = {
        "benchmark": "speedup",
        "quick": quick,
        "python": platform.python_version(),
        "unix_time": int(time.time()),
        "results": results,
        "kernel_baseline_pr8": [
            row for row in KERNEL_BASELINE_PR8
            if any(
                row["problem"] == name and row["delta"] == delta
                for name, delta, is_quick, _ in selected
            )
        ],
    }
    if legacy_done:
        # The headline number: kernel vs legacy on the largest (slowest
        # legacy) catalog derivation both paths complete.
        largest = max(legacy_done, key=lambda r: r["legacy_s"])
        report["largest_case"] = {
            "problem": largest["problem"],
            "delta": largest["delta"],
            "legacy_s": largest["legacy_s"],
            "cold_s": largest["cold_s"],
            "kernel_speedup": largest.get("kernel_speedup"),
        }
    if ratios:
        report["min_kernel_speedup"] = min(ratios)
        report["max_kernel_speedup"] = max(ratios)
    if search:
        report["search_results"] = run_search_bench(quick=quick)
        report["search_baseline_pr3"] = [
            row for row in SEARCH_BASELINE_PR3
            if not quick
            or any(
                row["problem"] == name and row["delta"] == delta
                for name, delta, _, is_quick in SEARCH_CASES
                if is_quick
            )
        ]
    if classify:
        report["classify_results"] = run_classify_bench(quick=quick)
    if backends:
        report["backend_results"] = run_backend_bench(
            backends, workers=workers, quick=quick
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument(
        "--search",
        action="store_true",
        help="also time search_lower_bound runs (before/after vs the PR-3 baseline)",
    )
    parser.add_argument(
        "--classify",
        action="store_true",
        help="also time two-sided classify runs (bracket + both certificates)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=sorted(EXECUTOR_NAMES),
        default=None,
        help="also time the batch API on this execution backend (repeatable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --backend batches (default: cpu count)",
    )
    parser.add_argument(
        "--output", default="BENCH_speedup.json", help="report destination"
    )
    parser.add_argument("--warm-rounds", type=int, default=3)
    args = parser.parse_args(argv)

    report = run_bench(
        quick=args.quick,
        warm_rounds=args.warm_rounds,
        search=args.search,
        classify=args.classify,
        backends=args.backend,
        workers=args.workers,
    )
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for record in report["results"]:
        line = f"{record['problem']:>22s} d={record['delta']}  {record['status']:>6s}  cold={record['cold_s']:.4f}s"
        if "warm_s" in record:
            line += f"  warm={record['warm_s']:.6f}s"
        if "legacy_s" in record:
            line += f"  legacy={record['legacy_s']:.4f}s ({record.get('legacy_status')})"
        if "kernel_speedup" in record:
            line += f"  kernel x{record['kernel_speedup']}"
        print(line)
    if "largest_case" in report:
        largest = report["largest_case"]
        print(
            f"largest legacy-completing case: {largest['problem']} d={largest['delta']} "
            f"-> kernel x{largest['kernel_speedup']}"
        )
    by_case = {(r["problem"], r["delta"]): r for r in report["results"]}
    for row in report.get("kernel_baseline_pr8", ()):
        current = by_case.get((row["problem"], row["delta"]))
        if current is None or current["status"] != "ok":
            continue
        if row["status"] == "ok":
            ratio = row["cold_s"] / max(current["cold_s"], 1e-9)
            print(
                f"vs pre-vector mask baseline: {row['problem']} d={row['delta']} "
                f"{row['cold_s']:.3f}s -> {current['cold_s']:.3f}s (x{ratio:.1f})"
            )
        else:
            print(
                f"vs pre-vector baseline: {row['problem']} d={row['delta']} "
                f"{row['status']} -> computed in {current['cold_s']:.1f}s"
            )
    for record in report.get("search_results", ()):
        print(
            f"search {record['problem']:>18s} d={record['delta']} "
            f"steps<={record['max_steps']}  {record['kind']:>11s}  "
            f"bound={record['bound']}  search={record['search_s']:.3f}s  "
            f"verified={record.get('verified')}"
        )
    for record in report.get("classify_results", ()):
        print(
            f"classify {record['problem']:>18s} d={record['delta']} "
            f"steps<={record['max_steps']}  {record['bracket']:>20s}  "
            f"classify={record['classify_s']:.3f}s  "
            f"verified={record.get('verified')}"
        )
    for record in report.get("backend_results", ()):
        print(
            f"backend {record['backend']:>8s} workers={record['workers']}  "
            f"batch of {record['problems']}  wall={record['wall_s']:.3f}s  "
            f"compute={record['compute_s']:.3f}s  "
            f"serial_fraction={record['serial_fraction']:.4f}"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
