"""Rule registry: import a rule module, list its rules here, done.

``ALL_RULES`` is the pluggable surface -- the CLI, the fixture suite, and
the CI job all enumerate it, so a new rule needs exactly two edits (its
module + this list) to be everywhere.
"""

from __future__ import annotations

from tools.relint.engine import Rule
from tools.relint.rules.concurrency import UnlockedMutationRule
from tools.relint.rules.construction import RawProblemRule, TrustedConstructorRule
from tools.relint.rules.determinism import UnorderedSerializationRule
from tools.relint.rules.exceptions import SilentSwallowRule
from tools.relint.rules.freeze import FrozenCertificateRule
from tools.relint.rules.imports import LegacyImportRule, StringLabelRule
from tools.relint.rules.pickleability import UnpicklableMemberRule
from tools.relint.rules.resilience import BroadFaultSwallowRule
from tools.relint.rules.vectorize import UnbatchedMatchingRule

ALL_RULES: tuple[Rule, ...] = (
    LegacyImportRule(),
    StringLabelRule(),
    UnbatchedMatchingRule(),
    RawProblemRule(),
    TrustedConstructorRule(),
    FrozenCertificateRule(),
    SilentSwallowRule(),
    BroadFaultSwallowRule(),
    UnorderedSerializationRule(),
    UnlockedMutationRule(),
    UnpicklableMemberRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


__all__ = ["ALL_RULES", "rule_by_id"]
