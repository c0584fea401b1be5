"""The speedup benchmark runner produces a well-formed machine-readable report."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from run_speedup_bench import (  # noqa: E402
    bench_case,
    main,
    run_bench,
    run_classify_bench,
    run_search_bench,
)

TINY_CASES = [
    ("sinkless-coloring", 3, True, True),
    ("mis", 3, True, True),
]


def test_run_bench_report_shape():
    report = run_bench(cases=TINY_CASES, warm_rounds=1)
    assert report["benchmark"] == "speedup"
    assert len(report["results"]) == 2
    for record in report["results"]:
        assert record["status"] == "ok"
        assert record["cold_s"] >= 0
        assert record["warm_s"] >= 0
        assert record["legacy_status"] == "ok"
        assert record["kernel_speedup"] > 0
        assert record["derived_labels"] > 0
    largest = report["largest_case"]
    assert largest["problem"] in {"sinkless-coloring", "mis"}


def test_bench_case_records_limits():
    # 6-coloring trips max_derived_labels: the record must say so, not crash.
    record = bench_case("6-coloring", 2, run_legacy=False)
    assert record["status"] == "limit:max_derived_labels"
    assert "warm_s" not in record


def test_run_search_bench_rows():
    rows = run_search_bench(cases=[("sinkless-orientation", 3, 4, True)])
    assert len(rows) == 1
    row = rows[0]
    assert row["kind"] == "fixed-point"
    assert row["bound"] == 2
    assert row["verified"] is True
    assert row["search_s"] >= 0 and row["verify_s"] >= 0
    assert row["stats"]["speedup_calls"] >= 2


def test_run_classify_bench_rows():
    rows = run_classify_bench(
        cases=[
            ("indegree-handshake", 2, 3, True),
            ("sinkless-orientation", 3, 4, True),
        ]
    )
    assert len(rows) == 2
    tight, unbounded = rows
    assert tight["bracket"] == "[1, 1] tight"
    assert (tight["min_rounds"], tight["max_rounds"]) == (1, 1)
    assert tight["verified"] is True
    assert tight["classify_s"] >= 0 and tight["verify_s"] >= 0
    assert unbounded["bracket"] == "[Omega(log n)] tight"
    assert unbounded["unbounded"] is True and unbounded["max_rounds"] is None
    assert unbounded["verified"] is True


def test_report_embeds_classify_results(monkeypatch):
    import run_speedup_bench

    monkeypatch.setattr(
        run_speedup_bench,
        "CLASSIFY_CASES",
        [("indegree-handshake", 2, 3, True), ("superweak-2-coloring", 2, 2, False)],
    )
    report = run_bench(cases=TINY_CASES, warm_rounds=1, quick=True, classify=True)
    # Quick mode keeps only the quick classify cases.
    assert [r["problem"] for r in report["classify_results"]] == [
        "indegree-handshake"
    ]


def test_report_embeds_search_baseline(monkeypatch):
    import run_speedup_bench

    monkeypatch.setattr(
        run_speedup_bench,
        "SEARCH_CASES",
        [("sinkless-orientation", 3, 4, True)],
    )
    report = run_bench(cases=TINY_CASES, warm_rounds=1, quick=True, search=True)
    assert len(report["search_results"]) == 1
    # The quick report carries only the baseline rows of the quick cases.
    baseline = report["search_baseline_pr3"]
    assert [row["problem"] for row in baseline] == ["sinkless-orientation"]
    assert baseline[0]["verified"] is True


def test_fold_breakdown():
    report = run_bench(cases=TINY_CASES, warm_rounds=1)
    for record in report["results"]:
        folds = record["fold_s"]
        for phase in ("closed_sets_s", "enumeration_s", "matching_s",
                      "domination_s", "materialise_s"):
            assert folds[phase] >= 0
        assert folds["configs_streamed"] >= folds["frontier_peak"] > 0
    # None of the tiny cases has a frozen pre-vector baseline row.
    assert report["kernel_baseline_pr8"] == []


def test_report_embeds_kernel_baseline_for_selected_cases(monkeypatch):
    import run_speedup_bench

    monkeypatch.setattr(
        run_speedup_bench,
        "KERNEL_BASELINE_PR8",
        [{"problem": "mis", "delta": 3, "kernel": "mask",
          "cold_s": 1.0, "status": "ok"}],
    )
    report = run_bench(cases=TINY_CASES, warm_rounds=1)
    assert [row["problem"] for row in report["kernel_baseline_pr8"]] == ["mis"]


def test_main_writes_json(tmp_path, monkeypatch, capsys):
    import run_speedup_bench

    monkeypatch.setattr(run_speedup_bench, "CASES", TINY_CASES)
    output = tmp_path / "BENCH_speedup.json"
    assert main(["--quick", "--output", str(output), "--warm-rounds", "1"]) == 0
    payload = json.loads(output.read_text())
    assert payload["quick"] is True
    assert [r["problem"] for r in payload["results"]] == [
        "sinkless-coloring",
        "mis",
    ]
    assert "wrote" in capsys.readouterr().out