"""Rule registry. Import order fixes report ordering for equal locations."""

from __future__ import annotations

from typing import Dict, List

from reprolint.engine import Rule
from reprolint.rules.annotations import PublicAPIAnnotationsRule
from reprolint.rules.dead_code import UnreferencedDefinitionRule
from reprolint.rules.determinism import DeterminismRule
from reprolint.rules.error_hygiene import ErrorHygieneRule
from reprolint.rules.float_equality import FloatEqualityRule
from reprolint.rules.layering import LayeringRule
from reprolint.rules.parity import ParitySingleSourceRule
from reprolint.rules.rng_stream import RngStreamRule
from reprolint.rules.suppression_audit import SuppressionAuditRule
from reprolint.rules.units import UnitSuffixRule

ALL_RULES: List[Rule] = [
    DeterminismRule(),
    ErrorHygieneRule(),
    FloatEqualityRule(),
    UnitSuffixRule(),
    PublicAPIAnnotationsRule(),
    LayeringRule(),
    RngStreamRule(),
    ParitySingleSourceRule(),
    SuppressionAuditRule(),
    UnreferencedDefinitionRule(),
]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "ErrorHygieneRule",
    "FloatEqualityRule",
    "LayeringRule",
    "ParitySingleSourceRule",
    "PublicAPIAnnotationsRule",
    "RngStreamRule",
    "SuppressionAuditRule",
    "UnitSuffixRule",
    "UnreferencedDefinitionRule",
    "rules_by_id",
]
