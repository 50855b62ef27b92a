"""Benchmark of the invariant linter itself.

The lint step is blocking in CI, so its wall time is a developer-facing
hot path: track whole-repo lint time (parse + tokenize + all nine
rules over ``src``/``tests``/``benchmarks``/``examples``) in the
regression gate so a rule that goes accidentally quadratic fails the
build instead of quietly taxing every PR.
"""

from __future__ import annotations

import os

from repro.devtools import run_lint

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LINT_PATHS = tuple(
    os.path.join(_REPO_ROOT, part)
    for part in ("src", "tests", "benchmarks", "examples")
)


def test_lint_whole_repo(benchmark):
    report = benchmark(lambda: run_lint(_LINT_PATHS))
    # the benchmark doubles as an acceptance check: a dirty tree here
    # means the blocking CI lint step is about to fail too
    assert report.active == [], [v.format() for v in report.active]
    assert report.files_scanned > 100


def test_lint_single_rule_overhead(benchmark):
    """Per-rule cost on the hottest scoped rule (determinism scans
    every call node of every file)."""
    report = benchmark(
        lambda: run_lint(_LINT_PATHS, select=["RPR001"])
    )
    assert report.active == []
