"""Plain-text table rendering for experiment output.

The experiment drivers return lists of dataclasses / dicts; these helpers
turn them into aligned ASCII tables so the benchmark harness and the
report (:mod:`repro.analysis.report`) can print exactly what the paper
tabulates without any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render *rows* under *headers* as an aligned monospace table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * widths[i] for i in range(len(headers)))
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rendered_rows
    ]
    return "\n".join([line, separator, *body])


def format_records(records: Sequence[Mapping[str, object]],
                   columns: Sequence[str] | None = None) -> str:
    """Render a list of dicts, optionally restricted/ordered by *columns*."""
    if not records:
        return "(no rows)"
    keys = list(columns) if columns else list(records[0].keys())
    rows = [[record.get(key, "") for key in keys] for record in records]
    return format_table(keys, rows)


def _render(cell: object) -> str:
    """Human-friendly cell formatting (scientific notation for tiny floats)."""
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) < 1e-3 or abs(cell) >= 1e6:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
