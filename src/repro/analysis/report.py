"""Assemble the full experiment report.

``python -m repro.analysis.report [--scale paper|small]`` regenerates every
table and figure of the paper from scratch and prints them as text tables.
Its ``--scale paper`` output is the paper-scale record; the paper rows of
``tests/fixtures/spec_keys.json`` pin the digests of those tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.analysis import experiments
from repro.analysis.tables import format_records, format_table


def _rows_of(dataclass_rows: list[object]) -> list[dict[str, object]]:
    return [dataclasses.asdict(row) for row in dataclass_rows]


def table2_report(scale: str | None = None) -> str:
    """Table II: benchmark characteristics."""
    rows = experiments.table2(scale)
    return "Table II — benchmark characteristics\n" + format_records(
        rows,
        ["application", "qubits", "two_qubit_gates", "paper_two_qubit_gates",
         "communication"],
    )


def figure6_report(scale: str | None = None) -> str:
    """Figure 6: baseline vs LinQ swap insertion."""
    rows = _rows_of(experiments.figure6(scale))
    return "Figure 6 — LinQ vs baseline swap insertion\n" + format_records(
        rows,
        ["workload", "router", "num_swaps", "num_opposing_swaps",
         "opposing_swap_ratio", "num_moves", "success_rate",
         "log10_success_rate"],
    )


def figure7_report(scale: str | None = None) -> str:
    """Figure 7: MaxSwapLen sweep."""
    rows = _rows_of(experiments.figure7(scale))
    return "Figure 7 — MaxSwapLen sweep\n" + format_records(
        rows,
        ["workload", "max_swap_len", "num_swaps", "num_moves",
         "success_rate", "log10_success_rate"],
    )


def figure8_report(scale: str | None = None) -> str:
    """Figure 8: architecture comparison plus headline ratios."""
    comparisons = experiments.figure8(scale)
    rows = []
    for comparison in comparisons:
        for architecture, result in comparison.results.items():
            rows.append(
                {
                    "workload": comparison.circuit_name,
                    "architecture": architecture,
                    "success_rate": result.success_rate,
                    "log10_success_rate": result.log10_success_rate,
                    "num_moves": result.num_moves,
                    "execution_time_s": result.execution_time_s,
                }
            )
    ratios = experiments.headline_ratios(comparisons, scale)
    ratio_rows = [[name, value] for name, value in ratios.items()]
    return (
        "Figure 8 — architecture comparison\n"
        + format_records(
            rows,
            ["workload", "architecture", "success_rate",
             "log10_success_rate", "num_moves", "execution_time_s"],
        )
        + "\n\nHeadline TILT-vs-QCCD success ratios\n"
        + format_table(["workload", "ratio"], ratio_rows)
    )


def convergence_report(scale: str | None = None) -> str:
    """Stochastic sampling: sampled-vs-analytic convergence + Figure 8."""
    from repro.analysis.convergence import convergence_report as build

    return build(scale)


def scenarios_report(scale: str | None = None) -> str:
    """Correlated-noise scenarios: comparison, attribution and figure."""
    from repro.analysis.scenario_study import scenarios_report as build

    return build(scale)


def search_report(scale: str | None = None) -> str:
    """Design-space search: grid vs successive halving, Pareto front."""
    from repro.analysis.search_study import search_report as build

    return build(scale)


def table3_report(scale: str | None = None) -> str:
    """Table III: compilation results."""
    rows = _rows_of(experiments.table3(scale))
    return "Table III — LinQ compilation results\n" + format_records(
        rows,
        ["workload", "head_size", "time_swap_s", "time_schedule_s",
         "num_moves", "move_distance_um", "execution_time_s"],
    )


def full_report(scale: str | None = None) -> str:
    """Every experiment, concatenated."""
    scale = experiments.resolve_scale(scale)
    sections = []
    for builder in (table2_report, figure6_report, figure7_report,
                    figure8_report, table3_report):
        start = time.perf_counter()
        body = builder(scale)
        elapsed = time.perf_counter() - start
        sections.append(f"{body}\n(section generated in {elapsed:.1f} s)")
    header = f"TILT reproduction report — scale: {scale}"
    return ("\n\n" + "=" * 72 + "\n\n").join([header, *sections])


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "paper"), default=None,
                        help="workload scale (default: TILT_REPRO_SCALE or "
                             "'small')")
    parser.add_argument("--section", default="all",
                        choices=("all", "table2", "figure6", "figure7",
                                 "figure8", "table3", "convergence",
                                 "scenarios", "search"),
                        help="generate only one section ('convergence' is "
                             "the stochastic-sampling study, 'scenarios' "
                             "the correlated-noise comparison and 'search' "
                             "the design-space search study; none is part "
                             "of 'all')")
    args = parser.parse_args(argv)
    builders = {
        "table2": table2_report,
        "figure6": figure6_report,
        "figure7": figure7_report,
        "figure8": figure8_report,
        "table3": table3_report,
        "convergence": convergence_report,
        "scenarios": scenarios_report,
        "search": search_report,
    }
    if args.section == "all":
        print(full_report(args.scale))
    else:
        print(builders[args.section](args.scale))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI glue
    raise SystemExit(main())
