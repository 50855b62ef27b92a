"""RPR004 — scenario registration happens at import time.

Pool workers re-import the library: a
:class:`~repro.noise.scenarios.NoiseScenario` registered inside a
function is invisible to :class:`~repro.exec.backends.ProcessPoolBackend`
workers, so ``JobSpec(scenario=...)`` construction fails — or worse,
succeeds locally and dies only when the batch is sharded.  The ROADMAP invariant: *scenario names must be
registered at import time to be visible in pool workers*.

Two checks, on non-test code (pytest files register transient scenarios
inside fixtures on purpose and run in-process):

* a ``register_scenario(...)`` call nested inside any function or
  method body is flagged — hoist it to module level;
* a module-level ``NoiseScenario(...)`` construction that never reaches
  ``register_scenario`` (neither directly as an argument, nor via a
  module-level name later registered) is flagged — an unregistered
  scenario cannot be named by a JobSpec at all.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.core import FileContext, Rule, Violation, dotted_name

_REGISTER = "register_scenario"
_CONSTRUCT = "NoiseScenario"


def _call_tail(node: ast.Call) -> str | None:
    name = dotted_name(node.func)
    return name.rsplit(".", 1)[-1] if name else None


class ScenarioRegistrationRule(Rule):
    rule_id = "RPR004"
    description = (
        "NoiseScenario registration must happen at module import time "
        "(register_scenario at module level, every module-level "
        "construction registered) so process-pool workers that "
        "re-import the library see the name"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test_code()

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        # both checks match a call by its name as written
        if _REGISTER not in ctx.source and _CONSTRUCT not in ctx.source:
            return
        # One walk of the tree.  A register_scenario call at function
        # depth > 0 is flagged; the calls of each module-level statement
        # outside any def or class body feed the registration check.
        registered_names: set[str] = set()
        consumed: set[ast.Call] = set()
        constructions: list[tuple[ast.Call, str | None]] = []
        for stmt in ctx.tree.body:
            module_level = not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            stmt_constructs: list[ast.Call] = []
            registers: list[ast.Call] = []
            stack: list[tuple[ast.AST, int]] = [(stmt, 0)]
            while stack:
                node, depth = stack.pop()
                if isinstance(node, ast.Call):
                    tail = _call_tail(node)
                    if tail == _REGISTER and depth:
                        yield self.violation(
                            ctx, node,
                            f"{_REGISTER}() inside a function runs only "
                            f"in this process; hoist it to module level "
                            f"so pool workers re-importing the "
                            f"module see the scenario",
                        )
                    elif module_level and not depth:
                        if tail == _REGISTER:
                            registers.append(node)
                        elif tail == _CONSTRUCT:
                            stmt_constructs.append(node)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    depth += 1
                stack.extend((child, depth)
                             for child in ast.iter_child_nodes(node))
            if registers:
                # every construction inside a registering statement flows
                # into the registry (directly or via compose_scenarios)
                consumed.update(stmt_constructs)
                for register in registers:
                    for arg in register.args:
                        if isinstance(arg, ast.Name):
                            registered_names.add(arg.id)
            for node in stmt_constructs:
                bound: str | None = None
                if (isinstance(stmt, ast.Assign) and stmt.value is node
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    bound = stmt.targets[0].id
                constructions.append((node, bound))
        for node, bound in constructions:
            if node in consumed:
                continue
            if bound is not None and bound in registered_names:
                continue
            yield self.violation(
                ctx, node,
                "module-level NoiseScenario construction never reaches "
                "register_scenario(); unregistered scenarios cannot be "
                "named by JobSpec(scenario=) and are invisible to "
                "workers",
            )
