"""A catalog-wide round-elimination survey.

Runs one speedup step (and the 0-round tests, and fixed-point detection)
across every problem in the catalog, producing the summary table a
practitioner would consult first: how the derived descriptions grow, which
problems are trivial, which hit fixed points.  With ``search_steps > 0``
each row additionally runs the automated lower-bound search
(:mod:`repro.search`) and reports the bound it could certify -- a
discovered-bounds column for the landscape.  With ``classify_steps > 0``
each row instead runs the full two-sided classifier
(:meth:`repro.engine.Engine.classify`) and reports the resulting
complexity bracket and verdict.  This exercises the engine far
beyond the paper's own examples (the paper's Section 6 anticipates exactly
this use: "we expect many other problems to be solved by this technique").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.engine import Engine

from repro.core.canonical import are_isomorphic
from repro.core.problem import Problem
from repro.core.speedup import EngineLimitError
from repro.core.zero_round import zero_round_no_input, zero_round_with_orientations


@dataclass(frozen=True)
class LandscapeRow:
    """One catalog problem's one-step round-elimination profile.

    ``search_bound`` / ``search_unbounded`` are filled only when the survey
    ran the lower-bound search (``search_steps > 0``): the number of rounds
    the discovered certificate proves unsolvable, and whether the search
    found a pumpable fixed point (the Omega(log n) outcome).

    ``classification`` / ``classify_verdict`` are filled only when the
    survey ran the two-sided classifier (``classify_steps > 0``): the
    rendered complexity bracket (e.g. ``[1, 1]`` or ``[Omega(log n)]``) and
    its ``tight`` / ``gap`` / ``open`` verdict.
    """

    name: str
    delta: int
    labels: int
    zero_round_plain: bool
    zero_round_oriented: bool
    derived_labels: int | None
    derived_node_configs: int | None
    derived_zero_round_oriented: bool | None
    fixed_point: bool | None
    blew_up: bool
    search_bound: int | None = None
    search_unbounded: bool | None = None
    classification: str | None = None
    classify_verdict: str | None = None


def _run_search(
    problem: Problem, engine: "Engine", search_steps: int
) -> tuple[int | None, bool]:
    result = engine.search_lower_bound(problem, max_steps=search_steps)
    if result.certificate is None:
        # Trivial (0-round solvable): no lower bound exists to discover.
        return None, False
    return result.certificate.claimed_bound, result.unbounded


def _run_classify(
    problem: Problem, engine: "Engine", classify_steps: int
) -> tuple[str, str]:
    bracket = engine.classify(problem, max_steps=classify_steps).bracket
    if bracket.unbounded:
        rendered = "[Omega(log n)]"
    else:
        high = "?" if bracket.max_rounds is None else bracket.max_rounds
        rendered = f"[{bracket.min_rounds}, {high}]"
    return rendered, bracket.verdict


def survey_problem(
    problem: Problem,
    *,
    engine: "Engine | None" = None,
    search_steps: int = 0,
    classify_steps: int = 0,
) -> LandscapeRow:
    """One-step profile of a single problem (plus an optional bound search)."""
    if engine is None:
        from repro.engine import get_default_engine

        engine = get_default_engine()
    zero_plain = zero_round_no_input(problem) is not None
    zero_oriented = zero_round_with_orientations(problem) is not None
    search_bound: int | None = None
    search_unbounded: bool | None = None
    if search_steps > 0:
        search_bound, search_unbounded = _run_search(problem, engine, search_steps)
    classification: str | None = None
    classify_verdict: str | None = None
    if classify_steps > 0:
        classification, classify_verdict = _run_classify(
            problem, engine, classify_steps
        )
    try:
        derived = engine.speedup(problem).full
    except EngineLimitError:
        return LandscapeRow(
            name=problem.name,
            delta=problem.delta,
            labels=len(problem.labels),
            zero_round_plain=zero_plain,
            zero_round_oriented=zero_oriented,
            derived_labels=None,
            derived_node_configs=None,
            derived_zero_round_oriented=None,
            fixed_point=None,
            blew_up=True,
            search_bound=search_bound,
            search_unbounded=search_unbounded,
            classification=classification,
            classify_verdict=classify_verdict,
        )
    return LandscapeRow(
        name=problem.name,
        delta=problem.delta,
        labels=len(problem.labels),
        zero_round_plain=zero_plain,
        zero_round_oriented=zero_oriented,
        derived_labels=len(derived.labels),
        derived_node_configs=len(derived.node_constraint),
        derived_zero_round_oriented=zero_round_with_orientations(derived) is not None,
        fixed_point=are_isomorphic(derived.compressed(), problem.compressed()),
        blew_up=False,
        search_bound=search_bound,
        search_unbounded=search_unbounded,
        classification=classification,
        classify_verdict=classify_verdict,
    )


def survey_catalog(
    delta: int = 3,
    names: list[str] | None = None,
    *,
    engine: "Engine | None" = None,
    search_steps: int = 0,
    classify_steps: int = 0,
) -> list[LandscapeRow]:
    """Profile every cataloged family instantiable at ``delta``."""
    from repro.problems.catalog import catalog

    rows = []
    for name, family in sorted(catalog().items()):
        if names is not None and name not in names:
            continue
        if family.min_delta > delta:
            continue
        rows.append(
            survey_problem(
                family(delta),
                engine=engine,
                search_steps=search_steps,
                classify_steps=classify_steps,
            )
        )
    return rows


def _render_search_cell(row: LandscapeRow) -> str:
    if row.search_unbounded:
        return "Omega(log n)"
    if row.search_bound is None:
        return "-"
    return f">{row.search_bound} rounds"


def _render_classify_cell(row: LandscapeRow) -> str:
    if row.classification is None:
        return "-"
    return f"{row.classification} {row.classify_verdict}"


def landscape_markdown(rows: list[LandscapeRow]) -> str:
    """Render the survey as a markdown table."""
    from repro.analysis.report import render_table

    headers = [
        "problem",
        "delta",
        "|labels|",
        "0-round",
        "0-round (orient)",
        "|labels| after speedup",
        "|h'_1|",
        "derived 0-round (orient)",
        "fixed point",
        "discovered bound",
        "classification",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.name,
                row.delta,
                row.labels,
                "yes" if row.zero_round_plain else "no",
                "yes" if row.zero_round_oriented else "no",
                "blow-up" if row.blew_up else row.derived_labels,
                "-" if row.blew_up else row.derived_node_configs,
                "-" if row.blew_up else ("yes" if row.derived_zero_round_oriented else "no"),
                "-" if row.blew_up else ("yes" if row.fixed_point else "no"),
                _render_search_cell(row),
                _render_classify_cell(row),
            ]
        )
    return render_table(headers, body)
