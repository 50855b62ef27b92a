"""Developer tooling: the invariant linter (``repro-lint``).

``python -m repro.devtools.lint src tests benchmarks examples`` runs an
AST-based static-analysis pass that mechanically enforces the ROADMAP's
architecture invariants — determinism (RPR001), engine routing
(RPR002), cache-key stability (RPR003), import-time scenario
registration (RPR004), swallowed-exception hygiene (RPR005), layering
and import cycles (RPR006), worker-boundary serialization (RPR007),
shared state in worker code (RPR008) and seed dataflow (RPR009) — and
is wired into CI as a blocking step.  See the README section "Invariant
linting" for the rule table, the suppression grammar and how to add a
rule.
"""

from __future__ import annotations

from repro.devtools.core import (
    META_RULE,
    FileContext,
    LintReport,
    Rule,
    Suppression,
    Violation,
    run_lint,
)
from repro.devtools.rules import all_rules

__all__ = [
    "META_RULE",
    "FileContext",
    "LintReport",
    "Rule",
    "Suppression",
    "Violation",
    "all_rules",
    "run_lint",
]
