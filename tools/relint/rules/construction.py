"""Problem construction goes through the validating trust boundary.

``Problem(...)`` validates shape, but only ``Problem.make`` (and
``from_dict``, which routes through it) canonicalises user input -- sorting
edge configs, deduplicating node configs, normalising names.  ``search``
and ``engine`` code calling the bare constructor must therefore hand it
*already canonical* tuples, an invariant one refactor away from silently
breaking canonical-hash dedup.  Route through the classmethods instead.

``Problem._from_canonical`` skips validation altogether.  It is sanctioned
only in ``core/problem.py`` (the invariant-preserving transforms) and
``core/speedup.py`` (the full step's canonical-by-construction
materialisation); anywhere else a trusted copy comes from a ``Problem``
method such as ``with_name``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.relint import config
from tools.relint.engine import FileContext, Rule, Violation


class RawProblemRule(Rule):
    id = "raw-problem"
    description = (
        "search/ and engine/ must build problems via Problem.make or "
        "Problem.from_dict, never the raw constructor"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_packages(config.RAW_PROBLEM_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            raw = (isinstance(func, ast.Name) and func.id == "Problem") or (
                isinstance(func, ast.Attribute) and func.attr == "Problem"
            )
            if raw:
                yield ctx.violation(
                    self.id,
                    node,
                    "raw Problem(...) construction bypasses canonicalization; "
                    "use Problem.make(...)",
                )


class TrustedConstructorRule(Rule):
    id = "trusted-constructor"
    description = (
        "Problem._from_canonical skips validation; only core/problem.py and "
        "core/speedup.py may call it"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        parts = ctx.repro_parts
        if parts is not None and "/".join(parts) in config.TRUSTED_CONSTRUCTOR_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_from_canonical"
            ):
                yield ctx.violation(
                    self.id,
                    node,
                    "Problem._from_canonical skips validation; build through "
                    "Problem.make(...) or a Problem transform such as with_name",
                )
