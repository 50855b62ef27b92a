"""The repo's module-level import graph, as RPR006 builds it over ``src/``.

The synthetic cycle cases (submodule landing, function-scoped imports,
self-imports, anchoring) live in ``tests/test_lint.py``; this pins the
property on the real tree, with suppressed findings counted too, so a
disable comment cannot hide a cycle.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.core import run_lint

REPO_ROOT = Path(__file__).parent.parent


class TestRepoGraph:
    def test_repo_import_graph_is_acyclic(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT,
                          select=["RPR006"])
        cycles = [v.format() for v in report.violations
                  if v.message.startswith("module-level import cycle")]
        assert cycles == []
