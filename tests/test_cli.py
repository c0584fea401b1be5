"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.format import format_problem
from repro.core.problem import Problem
from repro.problems.sinkless import sinkless_coloring

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, stdin_text=None, check=True, extra_env=None):
    env = dict(os.environ)
    env.update(extra_env or {})
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    if check and process.returncode != 0:
        raise AssertionError(
            f"CLI failed ({process.returncode}):\n{process.stderr}"
        )
    return process


@pytest.fixture(scope="module")
def sc3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sc3.txt"
    path.write_text(format_problem(sinkless_coloring(3)))
    return path


def test_parse_roundtrips_text(sc3_file):
    process = run_cli("parse", str(sc3_file))
    assert process.stdout == format_problem(sinkless_coloring(3))


def test_parse_json(sc3_file):
    process = run_cli("parse", str(sc3_file), "--json")
    problem = Problem.from_dict(json.loads(process.stdout))
    assert problem == sinkless_coloring(3)


def test_parse_reads_stdin():
    text = format_problem(sinkless_coloring(3))
    process = run_cli("parse", "-", stdin_text=text)
    assert process.stdout == text


def test_parse_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("problem p delta=2\nlabels: a\nnode:\na a\nnode:\na a\n")
    process = run_cli("parse", str(bad), check=False)
    assert process.returncode == 2
    assert "line 5" in process.stderr
    assert "duplicate 'node:'" in process.stderr


def test_speedup_json(sc3_file):
    from repro.core.canonical import are_isomorphic
    from repro.core.speedup import SpeedupResult

    process = run_cli("speedup", str(sc3_file), "--steps", "1", "--json")
    payload = json.loads(process.stdout)
    result = SpeedupResult.from_dict(payload["steps"][0])
    sc3 = sinkless_coloring(3)
    assert result.original == sc3
    assert are_isomorphic(result.full.compressed(), sc3.compressed())


def test_speedup_text_emits_parseable_problem(sc3_file):
    from repro.core.format import parse_problem

    process = run_cli("speedup", str(sc3_file))
    derived = parse_problem(process.stdout)
    assert derived.name.endswith("+1")


def test_run_demo_matches_repl_example():
    """Acceptance: python -m repro run reproduces the REPL example's output."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    example = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "round_eliminator_repl.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        stdin=subprocess.DEVNULL,
        timeout=300,
    )
    assert example.returncode == 0, example.stderr
    cli = run_cli("run", stdin_text="")
    assert cli.stdout == example.stdout


def test_run_json(sc3_file):
    from repro.core.sequence import EliminationResult

    process = run_cli("run", str(sc3_file), "--max-steps", "3", "--json")
    result = EliminationResult.from_dict(json.loads(process.stdout))
    assert result.unbounded
    assert result.fixed_point_index == 1


def test_run_progress_goes_to_stderr(sc3_file):
    process = run_cli("run", str(sc3_file), "--max-steps", "1", "--progress")
    assert "[step 0]" in process.stderr
    assert "[step 0]" not in process.stdout


def test_catalog_lists_families():
    process = run_cli("catalog")
    names = process.stdout.split()
    assert "mis" in names
    assert "sinkless-coloring" in names


def test_catalog_instantiates_problem():
    from repro.core.format import parse_problem

    process = run_cli("catalog", "--name", "sinkless-coloring", "--delta", "3")
    assert parse_problem(process.stdout) == sinkless_coloring(3)


def test_catalog_json():
    process = run_cli("catalog", "--json")
    payload = json.loads(process.stdout)
    assert "mis" in payload


@pytest.mark.parametrize("command", ["speedup", "search", "classify"])
def test_removed_max_configs_alias_is_a_usage_error(command):
    process = run_cli(command, "sinkless_orientation", "--max-configs", "5", check=False)
    assert process.returncode == 2
    assert "--max-configs" in process.stderr


CLASSIFY_HANDSHAKE = ("classify", "indegree-handshake", "--delta", "2", "--max-steps", "3")


def assert_configuration_error(process, fragment):
    assert process.returncode == 2
    assert process.stderr.startswith("error: invalid engine configuration: ")
    assert fragment in process.stderr
    assert "Traceback" not in process.stderr


def test_unknown_executor_in_environment_is_a_usage_error():
    process = run_cli(
        *CLASSIFY_HANDSHAKE, check=False, extra_env={"REPRO_EXECUTOR": "thread"}
    )
    assert_configuration_error(process, "'thread'")


def test_malformed_fault_plan_in_environment_is_a_usage_error():
    process = run_cli(
        *CLASSIFY_HANDSHAKE, check=False, extra_env={"REPRO_FAULT_PLAN": "bogus"}
    )
    assert_configuration_error(process, "unknown fault kind 'bogus'")


@pytest.mark.parametrize("value", ["-1", "0"])
def test_non_positive_max_labels_is_a_usage_error(value):
    process = run_cli(*CLASSIFY_HANDSHAKE, "--max-labels", value, check=False)
    assert_configuration_error(process, "max_derived_labels must be positive")


def test_catalog_unknown_family_fails_cleanly():
    process = run_cli("catalog", "--name", "nope", "--delta", "3", check=False)
    assert process.returncode == 2
    assert "nope" in process.stderr


def test_speedup_cache_dir_is_populated(sc3_file, tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli("speedup", str(sc3_file), "--cache-dir", str(cache_dir))
    assert list(cache_dir.glob("*.json"))


def test_search_catalog_name_with_underscores():
    """Acceptance: `python -m repro search sinkless_orientation` finds the
    fixed point and its certificate re-verifies from JSON alone."""
    from repro.core.certificate import LowerBoundCertificate

    process = run_cli("search", "sinkless_orientation", "--json")
    payload = json.loads(process.stdout)
    assert payload["kind"] == "fixed-point"
    assert payload["unbounded"] is True
    assert payload["verified"] is True
    certificate = LowerBoundCertificate.from_dict(payload["certificate"])
    verdict = certificate.verify()
    assert verdict.valid and verdict.unbounded


def test_search_text_output_reports_verification():
    process = run_cli("search", "sinkless-coloring")
    assert "fixed-point" in process.stdout
    assert "independently re-verified: ok" in process.stdout


def test_search_reads_problem_file(sc3_file):
    process = run_cli("search", str(sc3_file), "--max-steps", "3", "--json")
    payload = json.loads(process.stdout)
    assert payload["kind"] == "fixed-point"


def test_search_trivial_problem_exits_one():
    text = "problem trivial delta=2\nlabels: a\nnode:\na a\nedge:\na a\n"
    process = run_cli("search", "-", stdin_text=text, check=False)
    assert process.returncode == 1
    assert "no lower bound" in process.stdout


def test_search_unknown_family_fails_cleanly():
    process = run_cli("search", "not_a_problem", check=False)
    assert process.returncode == 2
    assert "not-a-problem" in process.stderr


def test_search_accepts_no_zero_memo_flag():
    process = run_cli("search", "sinkless-coloring", "--no-zero-memo")
    assert "independently re-verified: ok" in process.stdout


def test_moves_text_output_lists_certified_moves():
    process = run_cli("moves", "mis")
    assert "certified move(s) of mis[d=3]" in process.stdout
    assert "merge[" in process.stdout


def test_moves_harden_json_payload():
    from repro.core.problem import Problem
    from repro.core.relaxation import (
        HARDENS,
        is_harder_restriction,
        is_relaxation_map,
    )

    # b strictly dominates a, so both a drop move and hardening restrictions
    # exist.
    text = "problem dominated delta=2\nlabels: a b\nnode:\na b\nb b\nedge:\na b\nb b\n"
    process = run_cli("moves", "-", "--harden", "--json", stdin_text=text)
    payload = json.loads(process.stdout)
    source = Problem.from_dict(payload["problem"])
    assert payload["moves"]
    directions = set()
    for move in payload["moves"]:
        target = Problem.from_dict(move["target"])
        certificate = move["certificate"]
        directions.add(certificate["direction"])
        if certificate["direction"] == HARDENS:
            assert move["kind"] == "harden"
            assert is_harder_restriction(source, target)
        else:
            assert is_relaxation_map(source, target, certificate["mapping"])
    assert directions == {"relaxation", HARDENS}


def test_moves_unknown_family_fails_cleanly():
    process = run_cli("moves", "not_a_problem", check=False)
    assert process.returncode == 2


def test_main_is_importable():
    from repro.cli import main

    assert main(["catalog"]) == 0
