"""Experiment drivers and reporting for every figure/table of the paper."""

from repro.analysis.convergence import (
    ConvergenceRow,
    convergence_study,
    sampled_figure8,
)
from repro.analysis.experiments import (
    Figure6Row,
    Figure7Row,
    Table3Row,
    ablation_lookahead,
    ablation_mapper,
    best_max_swap_len,
    figure6,
    figure7,
    figure8,
    head_sizes_for,
    headline_ratios,
    primary_head_size,
    resolve_scale,
    table2,
    table3,
)
from repro.analysis.scenario_study import (
    AttributionRow,
    ScenarioRow,
    attribution_rows,
    scenario_comparison,
    scenario_figure,
)
from repro.analysis.tables import format_records, format_table

__all__ = [
    "AttributionRow",
    "ConvergenceRow",
    "Figure6Row",
    "Figure7Row",
    "ScenarioRow",
    "Table3Row",
    "ablation_lookahead",
    "ablation_mapper",
    "attribution_rows",
    "best_max_swap_len",
    "convergence_study",
    "figure6",
    "figure7",
    "figure8",
    "format_records",
    "format_table",
    "head_sizes_for",
    "headline_ratios",
    "primary_head_size",
    "resolve_scale",
    "sampled_figure8",
    "scenario_comparison",
    "scenario_figure",
    "table2",
    "table3",
]
