"""``python -m repro``: the engine behind a command line.

Subcommands (all built on :class:`repro.engine.Engine` and the JSON wire
format of the core dataclasses):

``parse``
    Validate a problem file (or stdin) and echo it back canonically, as text
    or JSON -- a syntax/round-trip checker for the Round-Eliminator-style
    format.
``speedup``
    Apply the automatic speedup one or more times, printing each derived
    problem (text) or the full provenance-carrying results (JSON).
``run``
    Run the iterated round-elimination pipeline: prints the input problem,
    the lower-bound summary, and every derived step -- the same output as
    ``examples/round_eliminator_repl.py``.
``catalog``
    List the built-in problem families, or instantiate one at a degree.
``search``
    Automatically search for a lower-bound certificate: beam search over
    speedup steps interleaved with certified relaxations, emitting a
    machine-checkable :class:`repro.core.certificate.LowerBoundCertificate`
    that is re-verified from scratch before the command reports success.
``classify``
    Bracket a problem's complexity from both sides: the lower-bound search
    plus the upper-bound chase (speedup steps interleaved with certified
    hardening restrictions toward a 0-round-solvable terminal), emitting a
    :class:`repro.search.classify.ComplexityBracket` with a ``tight`` /
    ``gap`` / ``open`` verdict; every certificate present is re-verified
    from scratch before the command reports success.
``moves``
    List the certified relaxation moves of a problem (merge-equivalents /
    drop / merge / addarrow, generated mask-natively) and, with
    ``--harden``, the Section 4.5 hardening restrictions for upper-bound
    chasing.

Examples::

    python -m repro run                                # bundled MIS demo
    python -m repro run problem.txt --max-steps 5 --json
    python -m repro speedup problem.txt --steps 2
    python -m repro catalog --name sinkless-coloring --delta 3
    python -m repro search sinkless_orientation        # fixed point, auto
    python -m repro search problem.txt --max-steps 4 --json
    python -m repro classify indegree-handshake --delta 2
    python -m repro moves mis --harden --json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

import os

from repro.core.format import format_problem, parse_problem
from repro.core.problem import Problem, ProblemError
from repro.core.sequence import EliminationResult
from repro.engine import (
    EXECUTOR_NAMES,
    Engine,
    EngineConfig,
    EngineLimitError,
)
from repro.problems.catalog import catalog, get_problem, resolve_problem_spec

DEMO_PROBLEM = """
problem mis delta=3
labels: I P O
node:
I I I
O O P
edge:
I O
I P
O O
"""


def elimination_report(problem: Problem, result: EliminationResult) -> str:
    """The classic REPL rendering: input, summary, then each derived step."""
    lines = [format_problem(problem), result.summary(), ""]
    for step in result.steps[1:]:
        lines.append(f"--- step {step.index} ---")
        lines.append(format_problem(step.problem))
        if step.zero_round_solvable:
            lines.append("(0-round solvable -- chain stops here)")
            break
    return "\n".join(lines)


def _read_problem(path: str | None, *, allow_demo: bool = False) -> tuple[Problem, bool]:
    """Load a problem from a file, stdin (``-``), or the bundled demo.

    Returns the problem and whether the demo was used.
    """
    if path is None:
        if allow_demo and sys.stdin.isatty():
            return parse_problem(DEMO_PROBLEM), True
        text = sys.stdin.read()
        if not text.strip() and allow_demo:
            return parse_problem(DEMO_PROBLEM), True
    elif path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    return parse_problem(text), False


def _resolve_max_candidate_configs(args: argparse.Namespace, defaults: EngineConfig) -> int:
    """``--max-candidate-configs``, else the subcommand's or engine's default.

    The search commands fail fast, so they set a tighter default than the
    engine's.
    """
    value = getattr(args, "max_candidate_configs", None)
    if value is None:
        value = getattr(args, "default_max_candidate_configs", None)
    return value if value is not None else defaults.max_candidate_configs


def _engine_from_args(args: argparse.Namespace) -> Engine:
    defaults = EngineConfig()
    policy = defaults.retry_policy
    retries = getattr(args, "retries", None)
    if retries is not None:
        policy = policy.replace(max_retries=retries)
    task_timeout = getattr(args, "task_timeout", None)
    if task_timeout is not None:
        policy = policy.replace(task_timeout_s=task_timeout)
    config = EngineConfig(
        simplify=not getattr(args, "no_simplify", False),
        max_derived_labels=getattr(args, "max_labels", None) or defaults.max_derived_labels,
        max_candidate_configs=_resolve_max_candidate_configs(args, defaults),
        max_live_configs=getattr(args, "max_live_configs", None)
        or defaults.max_live_configs,
        cache_dir=getattr(args, "cache_dir", None),
        zero_round_memo=not getattr(args, "no_zero_memo", False),
        executor=getattr(args, "backend", None) or defaults.executor,
        max_workers=getattr(args, "workers", None),
        retry_policy=policy,
    )
    return Engine(config)


def _read_problem_spec(args: argparse.Namespace) -> Problem | None:
    """Resolve a file / stdin / catalog-name spec; None (after stderr) on error."""
    if args.spec == "-" or os.path.exists(args.spec):
        problem, _ = _read_problem(args.spec)
        return problem
    try:
        return resolve_problem_spec(args.spec, args.delta)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return None


# -- subcommands -------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    problem, _ = _read_problem(args.file)
    if args.json:
        print(json.dumps(problem.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_problem(problem))
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    problem, _ = _read_problem(args.file)
    engine = _engine_from_args(args)
    try:
        results = engine.iterate_speedup(problem, args.steps)
    except EngineLimitError as exc:
        print(f"error: derivation exceeded size limits: {exc}", file=sys.stderr)
        if args.json:
            # Stable machine-readable shape (limit_name is always one of
            # EngineLimitError.LIMIT_NAMES), so JSON consumers need not
            # parse the message.
            print(json.dumps(exc.to_dict(), indent=2, sort_keys=True))
        return 2
    if args.json:
        print(
            json.dumps(
                {"steps": [result.to_dict() for result in results]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for result in results:
            sys.stdout.write(format_problem(result.full))
            print()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    problem, used_demo = _read_problem(args.file, allow_demo=True)
    if used_demo:
        print("(no input file given; using the bundled MIS encoding)\n")
    engine = _engine_from_args(args)
    progress = None
    if args.progress:
        progress = lambda step: print(  # noqa: E731
            f"[step {step.index}] {step.problem.name}: "
            f"{len(step.problem.labels)} labels",
            file=sys.stderr,
        )
    result = engine.run(problem, max_steps=args.max_steps, progress=progress)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(elimination_report(problem, result))
        sys.stdout.write("\n")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    families = catalog()
    if args.name is not None:
        if args.delta is None:
            family = families.get(args.name)
            if family is None:
                print(f"error: unknown family {args.name!r}", file=sys.stderr)
                return 2
            print(f"{family.name} (min_delta={family.min_delta})")
            if family.description:
                print(family.description)
            return 0
        try:
            problem = get_problem(args.name, args.delta)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(problem.to_dict(), indent=2, sort_keys=True))
        else:
            sys.stdout.write(format_problem(problem))
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    name: {"min_delta": family.min_delta, "description": family.description}
                    for name, family in sorted(families.items())
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for name in sorted(families):
            print(name)
    return 0


def cmd_moves(args: argparse.Namespace) -> int:
    from repro.search.moves import generate_hardenings, generate_moves

    problem = _read_problem_spec(args)
    if problem is None:
        return 2
    moves = generate_moves(problem, max_moves=args.max_moves)
    if args.harden:
        moves = moves + generate_hardenings(problem, max_moves=args.max_moves)
    if args.json:
        payload = {
            "problem": problem.to_dict(),
            "moves": [
                {
                    "kind": move.kind,
                    "target": move.target.to_dict(),
                    "certificate": move.certificate().to_dict(),
                }
                for move in moves
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{len(moves)} certified move(s) of {problem.name}:")
    for move in moves:
        target = move.target
        print(
            f"  {move.describe()}  "
            f"(labels={len(target.labels)}, node={len(target.node_constraint)}, "
            f"edge={len(target.edge_constraint)})"
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    # The spec is a file, "-" for stdin, or a catalog family name (with
    # underscores tolerated); files win when both readings are possible.
    problem = _read_problem_spec(args)
    if problem is None:
        return 2
    if (args.checkpoint or args.resume) and not args.cache_dir:
        print(
            "error: --checkpoint/--resume require --cache-dir "
            "(checkpoints live in <cache-dir>/checkpoints/)",
            file=sys.stderr,
        )
        return 2
    engine = _engine_from_args(args)
    result = engine.search_lower_bound(
        problem,
        max_steps=args.max_steps,
        beam_width=args.beam_width,
        max_moves=args.max_moves,
        budget=args.budget,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    check = None
    if result.certificate is not None:
        # Never report a certificate the independent checker rejects.
        check = result.certificate.verify()
    if args.json:
        payload = result.to_dict()
        payload["verified"] = None if check is None else check.valid
        if check is not None and check.failures:
            payload["verification_failures"] = list(check.failures)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.summary())
        if result.certificate is not None:
            print()
            print(result.certificate.describe())
            assert check is not None
            print(f"independently re-verified: {'ok' if check.valid else 'FAILED'}")
            for failure in check.failures:
                print(f"  {failure}", file=sys.stderr)
    if check is None:
        return 1
    return 0 if check.valid else 2


def cmd_classify(args: argparse.Namespace) -> int:
    problem = _read_problem_spec(args)
    if problem is None:
        return 2
    if (args.checkpoint or args.resume) and not args.cache_dir:
        print(
            "error: --checkpoint/--resume require --cache-dir "
            "(checkpoints live in <cache-dir>/checkpoints/)",
            file=sys.stderr,
        )
        return 2
    engine = _engine_from_args(args)
    result = engine.classify(
        problem,
        max_steps=args.max_steps,
        beam_width=args.beam_width,
        max_moves=args.max_moves,
        budget=args.budget,
        chase_beam_width=args.chase_beam_width,
        chase_max_hardenings=args.chase_max_hardenings,
        chase_budget=args.chase_budget,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    bracket = result.bracket
    # Never report a bracket whose certificates the independent checker
    # rejects; a bracket with no certificate at all is "nothing found".
    check = None
    if bracket.lower is not None or bracket.upper is not None:
        check = bracket.verify()
    if args.json:
        payload = result.to_dict()
        payload["verified"] = None if check is None else check.valid
        if check is not None and check.failures:
            payload["verification_failures"] = list(check.failures)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.summary())
        if bracket.lower is not None:
            print()
            print(bracket.lower.describe())
        if bracket.upper is not None:
            print()
            print(bracket.upper.describe())
        if check is not None:
            print()
            print(f"independently re-verified: {'ok' if check.valid else 'FAILED'}")
            for failure in check.failures:
                print(f"  {failure}", file=sys.stderr)
    if check is None:
        return 1
    return 0 if check.valid else 2


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Round elimination for locally checkable problems "
        "(Brandt, PODC 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, *, optional_file: bool) -> None:
        p.add_argument(
            "file",
            nargs="?" if optional_file else None,
            default=None,
            help="problem file in the textual format ('-' for stdin)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON output")

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=EXECUTOR_NAMES,
            help="execution backend for batch fan-out: serial (default; or "
            "set REPRO_EXECUTOR) or process (true parallelism for CPU-heavy "
            "batches)",
        )
        p.add_argument(
            "--workers",
            type=int,
            help="worker-pool width for batch fan-out (default: min(8, cores))",
        )
        p.add_argument(
            "--retries",
            type=int,
            help="transient-fault retries per task before quarantine "
            "(default 2; crashes/timeouts retry, size-limit errors never do)",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            help="per-task deadline in seconds under the process backend "
            "(a hung worker is terminated and the task retried)",
        )

    def add_live_limit(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-live-configs",
            type=int,
            help="streaming full-step cap on the undominated candidate "
            "frontier held in memory (default 1000000)",
        )

    p_parse = sub.add_parser("parse", help="validate and canonicalise a problem")
    add_io(p_parse, optional_file=True)
    p_parse.set_defaults(func=cmd_parse)

    p_speedup = sub.add_parser("speedup", help="apply the automatic speedup")
    add_io(p_speedup, optional_file=True)
    p_speedup.add_argument("--steps", type=int, default=1, help="speedup applications")
    p_speedup.add_argument(
        "--no-simplify",
        action="store_true",
        help="use the literal Theorem 1 derivation (no maximality simplification)",
    )
    p_speedup.add_argument("--max-labels", type=int, help="derived-label size guard")
    p_speedup.add_argument(
        "--max-candidate-configs",
        type=int,
        help="candidate-configuration work guard "
        "(matches EngineConfig.max_candidate_configs)",
    )
    p_speedup.add_argument("--cache-dir", help="persistent JSON cache directory")
    add_live_limit(p_speedup)
    add_backend(p_speedup)
    p_speedup.set_defaults(func=cmd_speedup)

    p_run = sub.add_parser("run", help="run the round-elimination pipeline")
    add_io(p_run, optional_file=True)
    p_run.add_argument(
        "--max-steps", type=int, default=2, help="maximum speedup applications"
    )
    p_run.add_argument(
        "--no-simplify",
        action="store_true",
        help="use the literal Theorem 1 derivation",
    )
    p_run.add_argument("--cache-dir", help="persistent JSON cache directory")
    p_run.add_argument(
        "--progress", action="store_true", help="print per-step progress to stderr"
    )
    add_live_limit(p_run)
    add_backend(p_run)
    p_run.set_defaults(func=cmd_run)

    p_catalog = sub.add_parser("catalog", help="list or instantiate built-in problems")
    p_catalog.add_argument("--name", help="family name to show")
    p_catalog.add_argument("--delta", type=int, help="degree to instantiate at")
    p_catalog.add_argument("--json", action="store_true", help="emit JSON output")
    p_catalog.set_defaults(func=cmd_catalog)

    p_search = sub.add_parser(
        "search", help="automatically search for a lower-bound certificate"
    )
    p_search.add_argument(
        "spec",
        help="problem file ('-' for stdin) or catalog family name "
        "(underscores accepted, e.g. sinkless_orientation)",
    )
    p_search.add_argument(
        "--delta", type=int, default=3, help="degree for catalog names (default 3)"
    )
    p_search.add_argument(
        "--max-steps", type=int, default=5, help="maximum speedup depth (default 5)"
    )
    p_search.add_argument(
        "--beam-width", type=int, help="chain states kept per depth (default 4)"
    )
    p_search.add_argument(
        "--max-moves", type=int, help="relaxation moves per derived problem (default 24)"
    )
    p_search.add_argument(
        "--budget", type=int, help="maximum speedup derivations (default 256)"
    )
    # Searches meet blow-ups constantly; default to tight fail-fast guards so
    # a hopeless state dies in milliseconds instead of minutes.
    p_search.add_argument(
        "--max-labels",
        type=int,
        default=20_000,
        help="derived-label size guard (default 20000)",
    )
    p_search.add_argument(
        "--max-candidate-configs",
        type=int,
        help="candidate-configuration work guard (default 500000; matches "
        "EngineConfig.max_candidate_configs)",
    )
    p_search.set_defaults(default_max_candidate_configs=500_000)
    p_search.add_argument("--cache-dir", help="persistent JSON cache directory")
    p_search.add_argument(
        "--checkpoint",
        action="store_true",
        help="serialize the beam state to <cache-dir>/checkpoints/ after "
        "every completed depth (requires --cache-dir)",
    )
    p_search.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed checkpointed search from its saved state; "
        "the resumed run emits the identical certificate (requires "
        "--cache-dir; starts fresh when no matching checkpoint exists)",
    )
    p_search.add_argument(
        "--no-zero-memo",
        action="store_true",
        help="disable the cross-branch 0-round verdict memo",
    )
    add_live_limit(p_search)
    add_backend(p_search)
    p_search.add_argument("--json", action="store_true", help="emit JSON output")
    p_search.set_defaults(func=cmd_search)

    p_classify = sub.add_parser(
        "classify",
        help="bracket a problem's complexity: lower-bound search plus "
        "upper-bound chase",
    )
    p_classify.add_argument(
        "spec",
        help="problem file ('-' for stdin) or catalog family name "
        "(underscores accepted, e.g. indegree_handshake)",
    )
    p_classify.add_argument(
        "--delta", type=int, default=3, help="degree for catalog names (default 3)"
    )
    p_classify.add_argument(
        "--max-steps",
        type=int,
        default=5,
        help="maximum speedup depth per direction (default 5)",
    )
    p_classify.add_argument(
        "--beam-width",
        type=int,
        help="lower-search chain states kept per depth (default 4)",
    )
    p_classify.add_argument(
        "--max-moves",
        type=int,
        help="lower-search relaxation moves per derived problem (default 24)",
    )
    p_classify.add_argument(
        "--budget",
        type=int,
        help="lower-search maximum speedup derivations (default 256)",
    )
    p_classify.add_argument(
        "--chase-beam-width",
        type=int,
        help="upper-chase chain states kept per depth (default 4)",
    )
    p_classify.add_argument(
        "--chase-max-hardenings",
        type=int,
        help="hardening restrictions tried per chase state (default 8)",
    )
    p_classify.add_argument(
        "--chase-budget",
        type=int,
        help="upper-chase maximum speedup derivations (default 128)",
    )
    # Same fail-fast guards as `search`: classification meets the same
    # blow-ups, twice.
    p_classify.add_argument(
        "--max-labels",
        type=int,
        default=20_000,
        help="derived-label size guard (default 20000)",
    )
    p_classify.add_argument(
        "--max-candidate-configs",
        type=int,
        help="candidate-configuration work guard (default 500000; matches "
        "EngineConfig.max_candidate_configs)",
    )
    p_classify.set_defaults(default_max_candidate_configs=500_000)
    p_classify.add_argument("--cache-dir", help="persistent JSON cache directory")
    p_classify.add_argument(
        "--checkpoint",
        action="store_true",
        help="serialize both directions' beam states to "
        "<cache-dir>/checkpoints/ after every completed depth "
        "(requires --cache-dir)",
    )
    p_classify.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed checkpointed classification from its saved "
        "state; the resumed run emits the identical bracket (requires "
        "--cache-dir; starts fresh when no matching checkpoint exists)",
    )
    p_classify.add_argument(
        "--no-zero-memo",
        action="store_true",
        help="disable the cross-branch 0-round verdict memo",
    )
    add_live_limit(p_classify)
    add_backend(p_classify)
    p_classify.add_argument("--json", action="store_true", help="emit JSON output")
    p_classify.set_defaults(func=cmd_classify)

    p_moves = sub.add_parser(
        "moves", help="list certified relaxation / hardening moves of a problem"
    )
    p_moves.add_argument(
        "spec",
        help="problem file ('-' for stdin) or catalog family name "
        "(underscores accepted)",
    )
    p_moves.add_argument(
        "--delta", type=int, default=3, help="degree for catalog names (default 3)"
    )
    p_moves.add_argument(
        "--max-moves",
        type=int,
        default=24,
        help="total cap across all relaxation move families, and separately "
        "for the hardening list (default 24)",
    )
    p_moves.add_argument(
        "--harden",
        action="store_true",
        help="also list Section 4.5 hardening restrictions (upper-bound direction)",
    )
    p_moves.add_argument("--json", action="store_true", help="emit JSON output")
    p_moves.set_defaults(func=cmd_moves)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. `... | head`); exit quietly with the
        # conventional SIGPIPE status, muting the interpreter's flush error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
