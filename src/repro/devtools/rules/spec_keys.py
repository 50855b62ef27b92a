"""RPR003 — cache-key stability: JobSpec drift must update the fixture.

Cache keys are load-bearing (ROADMAP "Architecture invariants"): a
:func:`~repro.exec.jobs.spec_key` computed today must equal the key of
the same logical job computed by any past or future checkout, or every
durable :class:`~repro.exec.store.RunStore` silently invalidates — and,
worse, a *colliding* change can serve stale results as cache hits.
Keys say what a job is, not what it computes: a change to results for
an unchanged key bumps ``RESULT_SEMANTICS_VERSION`` instead, which the
fixture's golden result digests enforce.

The contract is pinned twice from one golden fixture,
``tests/fixtures/spec_keys.json``:

* ``tests/test_spec_keys.py`` recomputes representative spec keys at
  runtime and asserts byte-identity against the fixture;
* this rule cross-checks the ``JobSpec`` dataclass **AST** (field names,
  annotations and default expressions, in order) against the fixture's
  ``jobspec_fields`` snapshot — so the PR diff that edits the dataclass
  fails lint *until the same PR regenerates the fixture* (``python
  tests/test_spec_keys.py --update``) and the author has consciously
  reviewed key compatibility / bumped the result semantics version.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterable

from repro.devtools.core import FileContext, Rule, Violation

#: Fixture location, relative to the project root.
FIXTURE_REL_PATH = "tests/fixtures/spec_keys.json"

#: How to regenerate, quoted in every finding.
UPDATE_HINT = (
    "regenerate with 'PYTHONPATH=src python tests/test_spec_keys.py "
    "--update', review whether existing cache keys survive, and bump "
    "RESULT_SEMANTICS_VERSION if results changed"
)


def extract_dataclass_fields(tree: ast.Module,
                             class_name: str) -> list[dict] | None:
    """``[{name, annotation, default}]`` for *class_name*'s AST fields.

    Shared by the rule and the fixture generator so both sides of the
    comparison come from one extraction.  Returns ``None`` when the
    class is absent.  Only annotated assignments count — that is the
    dataclass field contract; ``ClassVar`` docstrings and methods are
    ignored.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields: list[dict] = []
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    fields.append({
                        "name": stmt.target.id,
                        "annotation": ast.unparse(stmt.annotation),
                        "default": (ast.unparse(stmt.value)
                                    if stmt.value is not None else None),
                    })
            return fields
    return None


class SpecKeyStabilityRule(Rule):
    rule_id = "RPR003"
    description = (
        "the JobSpec dataclass (fields, annotations, defaults) must "
        "match the committed golden fixture "
        "tests/fixtures/spec_keys.json — editing one without "
        "regenerating the other is cache-key drift"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel == "src/repro/exec/jobs.py"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        fields = extract_dataclass_fields(ctx.tree, "JobSpec")
        anchor = ctx.tree.body[0] if ctx.tree.body else ctx.tree
        if fields is None:
            yield self.violation(
                ctx, anchor,
                "expected the JobSpec dataclass in this module (the "
                "cache-key contract is pinned to it); if it moved, "
                "update the spec-key lint rule and fixture together",
            )
            return
        fixture_path = Path(ctx.root) / FIXTURE_REL_PATH
        try:
            recorded = json.loads(fixture_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            yield self.violation(
                ctx, anchor,
                f"golden spec-key fixture {FIXTURE_REL_PATH} is missing; "
                f"{UPDATE_HINT}",
            )
            return
        except (OSError, json.JSONDecodeError) as exc:
            yield self.violation(
                ctx, anchor,
                f"golden spec-key fixture {FIXTURE_REL_PATH} is "
                f"unreadable ({exc}); {UPDATE_HINT}",
            )
            return
        expected = recorded.get("jobspec_fields")
        if expected is None:
            yield self.violation(
                ctx, anchor,
                f"{FIXTURE_REL_PATH} lacks the 'jobspec_fields' "
                f"snapshot; {UPDATE_HINT}",
            )
            return
        if fields != expected:
            drift = _describe_drift(expected, fields)
            yield self.violation(
                ctx, anchor,
                f"JobSpec drifted from the golden fixture ({drift}); "
                f"any field/default change moves cache keys — "
                f"{UPDATE_HINT}",
            )


def _describe_drift(expected: list[dict], actual: list[dict]) -> str:
    """A compact human-readable diff of the two field snapshots."""
    expected_by_name = {f["name"]: f for f in expected}
    actual_by_name = {f["name"]: f for f in actual}
    parts: list[str] = []
    for name in actual_by_name.keys() - expected_by_name.keys():
        parts.append(f"added field {name!r}")
    for name in expected_by_name.keys() - actual_by_name.keys():
        parts.append(f"removed field {name!r}")
    for name, field in actual_by_name.items():
        recorded = expected_by_name.get(name)
        if recorded is not None and recorded != field:
            parts.append(f"changed field {name!r}")
    if not parts:  # same set, different order
        parts.append("field order changed")
    return ", ".join(sorted(parts))
