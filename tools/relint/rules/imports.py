"""Hot-path hygiene: no legacy kernel, no string-label algebra in loops.

``core/_legacy.py`` is the frozen pre-bitmask derivation kept solely as the
differential-test anchor; production modules importing it would silently
reintroduce the O(labels x configs) string path.  Similarly, the whole
point of the interned kernel is that inner loops work on integer masks --
mask-to-name surface calls (``label_set``/``members``/``config``/
``set_label_name``/``mask_name``) belong at presentation boundaries, not nested loops.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.relint import config
from tools.relint.astutil import call_name
from tools.relint.engine import FileContext, Rule, Violation


class LegacyImportRule(Rule):
    id = "legacy-import"
    description = (
        "hot-path modules (repro.core/engine/search) must not import or "
        "reference the frozen string kernel repro.core._legacy"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_packages(config.HOT_PACKAGES):
            return
        if ctx.module_file == "_legacy.py":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if "_legacy" in alias.name.split("."):
                        yield ctx.violation(
                            self.id, node, f"import of legacy kernel '{alias.name}'"
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
                if "_legacy" in module.split(".") or "_legacy" in names:
                    yield ctx.violation(
                        self.id,
                        node,
                        f"import from legacy kernel '{module or '.'}'",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "_legacy":
                yield ctx.violation(
                    self.id, node, "attribute access into the legacy kernel"
                )


class StringLabelRule(Rule):
    id = "string-label"
    description = (
        "inside hot kernel modules, mask-to-name surface calls (label_set/"
        "members/config/set_label_name/mask_name) must not run inside nested loops"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_packages(config.HOT_PACKAGES):
            return
        if ctx.module_file not in config.STRING_LABEL_MODULES:
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
                and call_name(child) in config.NAME_SURFACE_CALLS
                and child_depth >= 2
            ):
                yield ctx.violation(
                    self.id,
                    child,
                    f"string-label call '{call_name(child)}' at loop depth "
                    f"{child_depth}; keep inner loops on integer masks",
                )
            yield from self._scan(ctx, child, child_depth)
