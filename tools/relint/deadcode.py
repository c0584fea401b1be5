"""Non-gating dead-code report: defs in ``src/repro`` nobody references.

A deliberately simple reachability approximation: collect every top-level
function, class, and method defined under the scanned source tree, then
collect every identifier *used* anywhere in the reference trees (Name
loads, attribute accesses, ``__all__`` strings, and plain string constants
-- the CLI dispatches subcommands by string).  A definition whose name
never occurs as a use is reported.

This is a *report*, not a gate: dynamic dispatch and re-exports make
false positives unavoidable, so CI runs it with ``continue-on-error``.

Usage::

    python -m tools.relint.deadcode src/repro [--refs src tests examples benchmarks]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Sequence

from tools.relint.engine import iter_python_files


def _definitions(paths: Iterable[str | Path]) -> list[tuple[str, str, int]]:
    """(name, path, line) for every def/class under ``paths``."""
    defs: list[tuple[str, str, int]] = []
    for path in iter_python_files(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                defs.append((node.name, str(path), node.lineno))
    return defs


def _uses(paths: Iterable[str | Path]) -> set[str]:
    used: set[str] = set()
    for path in iter_python_files(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Covers __all__, getattr-by-name, and CLI dispatch tables.
                if node.value.isidentifier():
                    used.add(node.value)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A method overriding/implementing a name used elsewhere
                # counts as a use of that name only via call sites, which the
                # Name/Attribute branches already cover.
                for decorator in node.decorator_list:
                    for sub in ast.walk(decorator):
                        if isinstance(sub, ast.Name):
                            used.add(sub.id)
    return used


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.relint.deadcode",
        description="report defs under the source tree that nothing references",
    )
    parser.add_argument("source", nargs="+", help="definition tree(s), e.g. src/repro")
    parser.add_argument(
        "--refs",
        nargs="+",
        default=["src", "tests", "examples", "benchmarks"],
        help="trees scanned for uses (default: src tests examples benchmarks)",
    )
    args = parser.parse_args(argv)

    refs = [path for path in args.refs if Path(path).exists()]
    used = _uses(refs)
    dead = [
        (name, path, line)
        for name, path, line in _definitions(args.source)
        if name not in used
    ]
    for name, path, line in sorted(dead, key=lambda item: (item[1], item[2])):
        print(f"{path}:{line}: '{name}' appears unused")
    print(
        f"deadcode: {len(dead)} unreferenced definition(s) "
        f"(report only, not a gate)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
