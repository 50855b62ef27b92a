"""Command-line entry point of the invariant linter.

Usage::

    PYTHONPATH=src python -m repro.devtools.lint [paths...] [options]

With no paths, lints ``src tests benchmarks examples`` (resolved against
the current directory — run from the checkout root, as CI does).

Exit-code contract (what the CI step keys off):

* ``0`` — no active violations (suppressed findings do not fail);
* ``1`` — at least one active violation (including RPR000 hygiene
  findings such as malformed suppressions or syntax errors);
* ``2`` — usage error: unknown rule id in ``--select``/``--ignore``,
  or a path that does not exist.

The ``--json`` report is deterministic (no timestamps, sorted
violations) so two runs on the same tree are byte-identical — except
the ``profile.rule_seconds`` wall times, which exist precisely to show
where analysis time goes.  The CI artifact still diffs cleanly on
everything that matters.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.devtools.core import META_RULE, LintReport, run_lint
from repro.devtools.rules import all_rules

#: What a bare ``python -m repro.devtools.lint`` lints.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="AST-based linter for the repo's architecture "
                    "invariants (RPR001-RPR009).",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: %(default)s)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--json", metavar="FILE", dest="json_path",
        help="also write the machine-readable report to FILE "
             "('-' for stdout)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="print suppressed findings (with their justifications) too",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only the summary line",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split_rules(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [rule.strip() for rule in raw.split(",") if rule.strip()]


def list_rules() -> str:
    lines = [f"{META_RULE}  linter hygiene: syntax errors, malformed or "
             f"unjustified suppressions (always on, never suppressable)"]
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.description}")
    return "\n".join(lines)


def render(report: LintReport, *, show_suppressed: bool = False,
           quiet: bool = False) -> str:
    """The human-readable report body."""
    lines: list[str] = []
    if not quiet:
        for violation in report.violations:
            if violation.suppressed and not show_suppressed:
                continue
            lines.append(violation.format())
    active = len(report.active)
    lines.append(
        f"repro-lint: {report.files_scanned} files scanned, "
        f"{active} violation{'s' if active != 1 else ''} "
        f"({len(report.suppressed)} suppressed)"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    try:
        report = run_lint(
            args.paths,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    print(render(report, show_suppressed=args.show_suppressed,
                 quiet=args.quiet))
    if args.json_path:
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
