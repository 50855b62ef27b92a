"""Tests for the experiment drivers and report generation (small scale)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.analysis.report import (
    figure6_report,
    figure8_report,
    table2_report,
    table3_report,
)
from repro.analysis.tables import format_records, format_table
from repro.exceptions import ReproError


class TestScaleResolution:
    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv(experiments.SCALE_ENV_VAR, raising=False)
        assert experiments.resolve_scale() == "small"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(experiments.SCALE_ENV_VAR, "paper")
        assert experiments.resolve_scale() == "paper"
        assert experiments.resolve_scale("small") == "small"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ReproError):
            experiments.resolve_scale("huge")

    def test_head_sizes(self):
        assert experiments.head_sizes_for("paper", 64) == (16, 32)
        small = experiments.head_sizes_for("small", 16)
        assert small[0] < small[1] <= 16
        assert experiments.primary_head_size("paper", 64) == 16


class TestTable2:
    def test_rows_cover_all_benchmarks(self):
        rows = experiments.table2("small")
        assert [row["application"] for row in rows] == [
            "ADDER", "BV", "QAOA", "RCS", "QFT", "SQRT",
        ]

    def test_report_text(self):
        text = table2_report("small")
        assert "Table II" in text and "QFT" in text

    def test_cli_runs_report_module_once(self):
        """``python -m repro.analysis.report`` must not find the module
        already imported by its package (runpy's RuntimeWarning)."""
        root = Path(__file__).parent.parent
        completed = subprocess.run(
            (sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.analysis.report", "--scale", "small",
             "--section", "table2"),
            capture_output=True, text=True, timeout=120, cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "Table II" in completed.stdout


class TestFigure6:
    def test_rows_and_shape(self):
        rows = experiments.figure6("small")
        assert len(rows) == 6  # 3 workloads x 2 routers
        by_key = {(row.workload, row.router): row for row in rows}
        for workload in ("QFT", "SQRT"):
            linq = by_key[(workload, "linq")]
            baseline = by_key[(workload, "baseline")]
            # The headline Figure 6 findings: fewer swaps, more opposing
            # swaps, fewer moves, better success for the LinQ router.
            assert linq.num_swaps <= baseline.num_swaps
            assert linq.opposing_swap_ratio >= baseline.opposing_swap_ratio
            assert linq.log10_success_rate >= baseline.log10_success_rate

    def test_report_text(self):
        assert "Figure 6" in figure6_report("small")


class TestFigure7:
    def test_sweep_rows(self):
        rows = experiments.figure7("small", workloads=("BV",))
        assert all(row.workload == "BV" for row in rows)
        lengths = [row.max_swap_len for row in rows]
        assert lengths == sorted(lengths, reverse=True)

    def test_best_max_swap_len(self):
        rows = experiments.figure7("small", workloads=("QFT",))
        best = experiments.best_max_swap_len(rows, "QFT")
        assert best.log10_success_rate == max(r.log10_success_rate for r in rows)
        with pytest.raises(ReproError):
            experiments.best_max_swap_len(rows, "BV")


class TestFigure8AndTable3:
    def test_figure8_architectures(self):
        comparisons = experiments.figure8("small", workloads=("QAOA", "BV"))
        assert len(comparisons) == 2
        for comparison in comparisons:
            assert "Ideal TI" in comparison.results
            assert "QCCD" in comparison.results
        ratios = experiments.headline_ratios(comparisons)
        assert "max" in ratios

    def test_figure8_report_text(self):
        text = figure8_report("small")
        assert "Figure 8" in text and "Headline" in text

    def test_table3_rows(self):
        rows = experiments.table3("small")
        assert len(rows) == 12  # 6 workloads x 2 head sizes
        for row in rows:
            assert row.num_moves >= 0
            assert row.execution_time_s > 0

    def test_table3_report_text(self):
        assert "Table III" in table3_report("small")


class TestAblations:
    def test_mapper_ablation(self):
        results = experiments.ablation_mapper("small", workload="BV")
        assert set(results) == {"trivial", "spectral", "greedy"}

    def test_lookahead_ablation(self):
        points = experiments.ablation_lookahead("small", workload="BV")
        assert len(points) >= 2


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 1e-9]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_records_empty(self):
        assert format_records([]) == "(no rows)"

    def test_format_records_column_selection(self):
        text = format_records([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]
