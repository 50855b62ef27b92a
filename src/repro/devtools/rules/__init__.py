"""The repo's invariant rule set, RPR001-RPR009.

Each rule lives in its own module and pins one ROADMAP architecture
invariant; :func:`all_rules` builds a fresh instance list in id order.
Every rule judges one file at a time; RPR006 also bans import cycles
across files from its :meth:`~repro.devtools.core.Rule.finish` hook.
Adding a rule = a new module with a :class:`~repro.devtools.core.Rule`
subclass, an entry here, positive/negative corpus files under
``tests/lint_corpus/``, and a row in the README rule table.
"""

from __future__ import annotations

from repro.devtools.core import Rule
from repro.devtools.rules.determinism import DeterminismRule
from repro.devtools.rules.engine_routing import EngineRoutingRule
from repro.devtools.rules.exceptions import SwallowedExceptionRule
from repro.devtools.rules.layering import LayeringRule
from repro.devtools.rules.scenarios import ScenarioRegistrationRule
from repro.devtools.rules.seed_dataflow import SeedDataflowRule
from repro.devtools.rules.shared_state import SharedStateRule
from repro.devtools.rules.spec_keys import SpecKeyStabilityRule
from repro.devtools.rules.worker_boundary import WorkerBoundaryRule

__all__ = [
    "DeterminismRule",
    "EngineRoutingRule",
    "LayeringRule",
    "ScenarioRegistrationRule",
    "SeedDataflowRule",
    "SharedStateRule",
    "SpecKeyStabilityRule",
    "SwallowedExceptionRule",
    "WorkerBoundaryRule",
    "all_rules",
]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    DeterminismRule,
    EngineRoutingRule,
    SpecKeyStabilityRule,
    ScenarioRegistrationRule,
    SwallowedExceptionRule,
    LayeringRule,
    WorkerBoundaryRule,
    SharedStateRule,
    SeedDataflowRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every rule, in rule-id order."""
    return [rule_class() for rule_class in _RULE_CLASSES]
