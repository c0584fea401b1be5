"""Batched-kernel hygiene: no per-candidate matching calls inside loops.

``repro.core.vectorkernel`` batch-evaluates the Hall-condition
feasibility of both derivation steps (``AllowsTable.allowed_next``) for
every candidate next label at once, at every prefix length.  Inside the
modules that hold the derivation's hot folds
(:data:`tools.relint.config.VECTORIZED_MODULES`), calling the scalar
entry points (``mask_matching_exists``, the ``allows`` membership oracle)
per candidate *inside a loop* quietly reintroduces the O(candidates)
Python-level fold the batched table exists to remove.

Scalar matching now survives only in the oracle for ``delta > 16``
(``_MaskMembership``), where ``AllowsTable``'s walk over all
``2**(delta - 1)`` subsets of the chosen slots grows exponentially.  It
carries an explicit ``# relint: allow[unbatched-matching]`` marker, which
doubles as an inventory of exactly where scalar matching survives.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.relint import config
from tools.relint.astutil import call_name
from tools.relint.engine import FileContext, Rule, Violation


class UnbatchedMatchingRule(Rule):
    id = "unbatched-matching"
    description = (
        "in modules with a batched vector equivalent, per-candidate matching "
        "calls (mask_matching_exists/allows) must not run inside loops"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_packages(config.HOT_PACKAGES):
            return
        if ctx.module_file not in config.VECTORIZED_MODULES:
            return
        yield from self._scan(ctx, ctx.tree, depth=0)

    def _scan(self, ctx: FileContext, node: ast.AST, depth: int) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_depth = depth
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_depth += 1
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                child_depth += len(child.generators)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A nested function resets the loop context: it is *called*
                # somewhere, and the call site's depth is what matters.
                child_depth = 0
            if (
                isinstance(child, ast.Call)
                and call_name(child) in config.MATCHING_CALLS
                and child_depth >= 1
            ):
                yield ctx.violation(
                    self.id,
                    child,
                    f"per-candidate matching call '{call_name(child)}' at loop "
                    f"depth {child_depth}; batch it through the vector kernel "
                    "or mark the scalar fallback with allow[unbatched-matching]",
                )
            yield from self._scan(ctx, child, child_depth)
