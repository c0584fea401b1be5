"""Tests for the domain lint engine (``tools.relint``).

Three layers:

* **rule efficacy** -- every rule fires on its violating fixture with the
  expected count and stays silent on the clean / out-of-scope fixtures;
* **engine mechanics** -- virtual paths, ``allow[...]`` suppressions,
  ``skip-file``, deterministic ordering, rendering;
* **CLI contract** -- exit codes (0 clean / 1 violations / 2 usage or
  parse error), ``--select`` / ``--ignore``, ``--list-rules``, and the
  repository self-check: ``python -m tools.relint src tests`` must be
  clean, which is exactly the gate CI enforces.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tools.relint import ALL_RULES, lint_paths, lint_source, rule_by_id
from tools.relint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_VIOLATIONS, main, select_rules

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "relint" / "fixtures"

# (fixture, rule to run, expected violation count)
FIXTURE_MATRIX = [
    ("legacy_import/bad.py", "legacy-import", 3),
    ("legacy_import/good.py", "legacy-import", 0),
    ("legacy_import/outside_hot_path.py", "legacy-import", 0),
    ("string_label/bad.py", "string-label", 3),
    ("string_label/good.py", "string-label", 0),
    ("string_label/other_module.py", "string-label", 0),
    ("unbatched_matching/bad.py", "unbatched-matching", 3),
    ("unbatched_matching/good.py", "unbatched-matching", 0),
    ("unbatched_matching/other_module.py", "unbatched-matching", 0),
    ("raw_problem/bad.py", "raw-problem", 2),
    ("raw_problem/good.py", "raw-problem", 0),
    ("raw_problem/in_core.py", "raw-problem", 0),
    ("trusted_constructor/bad.py", "trusted-constructor", 2),
    ("trusted_constructor/good.py", "trusted-constructor", 0),
    ("trusted_constructor/in_core.py", "trusted-constructor", 0),
    ("frozen_certificate/bad.py", "frozen-certificate", 3),
    ("frozen_certificate/good.py", "frozen-certificate", 0),
    ("frozen_certificate/in_defining_module.py", "frozen-certificate", 0),
    ("silent_swallow/bad.py", "silent-swallow", 3),
    ("silent_swallow/good.py", "silent-swallow", 0),
    ("broad_fault_swallow/bad.py", "broad-fault-swallow", 3),
    ("broad_fault_swallow/good.py", "broad-fault-swallow", 0),
    ("broad_fault_swallow/in_resilience.py", "broad-fault-swallow", 0),
    ("unordered_serialization/bad.py", "unordered-serialization", 3),
    ("unordered_serialization/good.py", "unordered-serialization", 0),
    ("unordered_serialization/outside_repro.py", "unordered-serialization", 0),
    ("unlocked_mutation/bad.py", "unlocked-mutation", 3),
    ("unlocked_mutation/good.py", "unlocked-mutation", 0),
    ("unpicklable_member/bad.py", "unpicklable-member", 4),
    ("unpicklable_member/good.py", "unpicklable-member", 0),
]


@pytest.mark.parametrize("fixture,rule_id,expected", FIXTURE_MATRIX)
def test_rule_on_fixture(fixture: str, rule_id: str, expected: int) -> None:
    violations = lint_paths([FIXTURES / fixture], [rule_by_id(rule_id)])
    rendered = "\n".join(v.render() for v in violations)
    assert len(violations) == expected, rendered
    assert all(v.rule == rule_id for v in violations), rendered


def test_every_rule_has_a_violating_fixture() -> None:
    """Each shipped rule is proven live by at least one firing fixture."""
    covered = {rule_id for _, rule_id, count in FIXTURE_MATRIX if count > 0}
    assert covered == {rule.id for rule in ALL_RULES}


def test_bad_fixtures_flag_only_their_own_rule() -> None:
    """Under ALL rules, each bad fixture trips exactly its target rule --
    fixtures double as false-positive probes for the other rules."""
    for fixture, rule_id, expected in FIXTURE_MATRIX:
        if expected == 0:
            continue
        violations = lint_paths([FIXTURES / fixture], ALL_RULES)
        assert {v.rule for v in violations} == {rule_id}, fixture


# ---------------------------------------------------------------- engine --


def test_virtual_path_directive_scopes_rules() -> None:
    source = "# relint: path=src/repro/search/x.py\nimport _legacy\n"
    assert not lint_source(source, "scratch.py", ALL_RULES) == []
    outside = "# relint: path=examples/x.py\nimport _legacy\n"
    assert lint_source(outside, "scratch.py", ALL_RULES) == []


def test_allow_suppression_is_per_line_and_per_rule() -> None:
    path = "# relint: path=src/repro/search/x.py\n"
    line = "p = Problem(name, delta, e, n, l)"
    rule = [rule_by_id("raw-problem")]
    assert lint_source(path + line + "\n", "s.py", rule)
    assert lint_source(path + line + "  # relint: allow[raw-problem]\n", "s.py", rule) == []
    assert lint_source(path + line + "  # relint: allow[*]\n", "s.py", rule) == []
    # Suppressing a *different* rule does not help.
    assert lint_source(path + line + "  # relint: allow[string-label]\n", "s.py", rule)


def test_suppression_fixtures_are_clean() -> None:
    assert lint_paths([FIXTURES / "suppression" / "allowed.py"], ALL_RULES) == []
    assert lint_paths([FIXTURES / "suppression" / "skipped.py"], ALL_RULES) == []


def test_violations_sorted_and_rendered() -> None:
    violations = lint_paths([FIXTURES / "legacy_import" / "bad.py"], ALL_RULES)
    assert violations == sorted(violations)
    first = violations[0]
    assert first.render() == (
        f"{first.path}:{first.line}:{first.col}: [{first.rule}] {first.message}"
    )


def test_fixture_dirs_are_skipped_in_directory_traversal() -> None:
    """Linting the tools/ tree must not trip over the deliberate fixtures."""
    assert lint_paths([REPO / "tools"], ALL_RULES) == []


# ------------------------------------------------------------------- CLI --


def test_select_rules_filters_and_validates() -> None:
    assert {r.id for r in select_rules(select=["raw-problem"])} == {"raw-problem"}
    remaining = {r.id for r in select_rules(ignore=["raw-problem"])}
    assert "raw-problem" not in remaining and remaining
    with pytest.raises(ValueError):
        select_rules(select=["no-such-rule"])


def test_cli_exit_codes(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    bad = FIXTURES / "raw_problem" / "bad.py"
    good = FIXTURES / "raw_problem" / "good.py"
    assert main([str(good)]) == EXIT_CLEAN
    assert main([str(bad)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "[raw-problem]" in out

    # --ignore silences the only firing rule; --select of another rule too.
    assert main([str(bad), "--ignore", "raw-problem"]) == EXIT_CLEAN
    assert main([str(bad), "--select", "legacy-import,string-label"]) == EXIT_CLEAN
    assert main([str(bad), "--select", "raw-problem"]) == EXIT_VIOLATIONS

    # Usage and parse errors are distinct from violations.
    assert main([]) == EXIT_ERROR
    assert main([str(bad), "--select", "bogus"]) == EXIT_ERROR
    assert main([str(tmp_path / "missing.py")]) == EXIT_ERROR
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n")
    assert main([str(broken)]) == EXIT_ERROR

    capsys.readouterr()
    assert main(["--list-rules"]) == EXIT_CLEAN
    listed = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in listed


def test_cli_module_entrypoint_self_check() -> None:
    """The CI gate: the repository's own sources lint clean, end to end."""
    result = subprocess.run(
        [sys.executable, "-m", "tools.relint", "src", "tests", "tools", "examples"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr


# -------------------------------------------------------------- deadcode --

#: ``python -m tools.relint.deadcode src/repro --refs src examples``: what
#: nothing in the package or the examples references.  Shrink this as the
#: entries are moved to tests or deleted; a new entry must be justified here.
_DEADCODE_PIN = {
    ("src/repro/analysis/experiments.py", "reproduces_paper"),
    ("src/repro/core/certificate.py", "final_problem"),
    ("src/repro/core/diagram.py", "diagram_build_count"),
    ("src/repro/core/diagram.py", "maximal_labels"),
    ("src/repro/core/galois.py", "closure"),
    ("src/repro/core/galois.py", "is_closed"),
    ("src/repro/core/galois.py", "closed_sets"),
    ("src/repro/core/galois.py", "usable_closed_sets"),
    ("src/repro/core/problem.py", "allows_node"),
    ("src/repro/core/speedup.py", "polar_name"),
    ("src/repro/engine/engine.py", "cache_stats"),
    ("src/repro/engine/engine.py", "clear_cache"),
    ("src/repro/engine/engine.py", "speedup_many"),
    ("src/repro/engine/engine.py", "run_many"),
    ("src/repro/engine/engine.py", "last_batch_stats"),
    ("src/repro/sim/ports.py", "with_random_ports"),
    ("src/repro/sim/ports.py", "b_elements"),
    ("src/repro/sim/solver.py", "solve_problem_on_graph"),
    ("src/repro/sim/speedup_exec.py", "all_ok"),
    ("src/repro/superweak/lemma1.py", "lemma_conclusion_holds"),
    ("src/repro/superweak/weak9.py", "matches_paper"),
    ("src/repro/utils/logstar.py", "log2_floor"),
    ("src/repro/utils/matching.py", "can_realize"),
    ("src/repro/utils/multiset.py", "multiset_union"),
    ("src/repro/utils/orders.py", "maximal_elements"),
    ("src/repro/utils/orders.py", "filters"),
    ("src/repro/utils/tower.py", "materialize"),
}


def test_deadcode_report_is_pinned() -> None:
    from tools.relint.deadcode import _definitions, _uses

    used = _uses([REPO / "src", REPO / "examples"])
    dead = {
        (Path(path).relative_to(REPO).as_posix(), name)
        for name, path, _line in _definitions([REPO / "src" / "repro"])
        if name not in used
    }
    assert dead == _DEADCODE_PIN
