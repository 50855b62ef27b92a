"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import os

import pytest

_GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "check_regression.py",
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression",
                                                  _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _medians(scale_tracked: float = 1.0, scale_all: float = 1.0,
             ) -> dict[str, float]:
    """A synthetic run with one benchmark per tracked hot path plus
    untracked ballast for the machine-speed normaliser."""
    tracked = {
        "benchmarks/bench_table3_compilation.py::test_tape_scheduling_time[QFT-0]": 0.006,
        "benchmarks/bench_table3_compilation.py::test_swap_insertion_time[linq-QFT-0]": 0.01,
        "benchmarks/bench_compiler_passes.py::test_qccd_compile": 0.002,
        "benchmarks/bench_compiler_passes.py::test_native_decomposition": 0.004,
        "benchmarks/bench_compiler_passes.py::test_tilt_simulation": 0.005,
        "benchmarks/bench_compiler_passes.py::test_ideal_simulation": 0.002,
        "benchmarks/bench_search.py::test_grid_search_analytic": 0.07,
        "benchmarks/bench_engine.py::test_sweep_cache_hit_rate[QFT]": 0.0008,
        "benchmarks/bench_stochastic.py::test_serial_shots_per_second": 0.5,
        "benchmarks/bench_stochastic.py::test_sharded_sampling_shares_one_sampler": 0.12,
        "benchmarks/bench_stochastic.py::test_sampler_build": 0.03,
        "benchmarks/bench_stochastic.py::test_batched_statevector_patterns": 0.04,
        "benchmarks/bench_scenarios.py::test_correlated_sampling_shots_per_second": 9.0,
        "benchmarks/bench_scenarios.py::test_leakage_sampling_shots_per_second": 0.3,
        "benchmarks/bench_scenarios.py::test_scenario_analytics": 0.03,
        "benchmarks/bench_lint.py::test_lint_whole_repo": 0.55,
        "benchmarks/bench_obs.py::test_untraced_engine_batch": 0.02,
        "benchmarks/bench_obs.py::test_traced_engine_batch": 0.022,
        "benchmarks/bench_obs.py::test_profiled_engine_batch": 0.024,
    }
    untracked = {f"benchmarks/bench_other.py::test_{i}": 0.01 * (i + 1)
                 for i in range(8)}
    out = {name: value * scale_tracked * scale_all
           for name, value in tracked.items()}
    out.update({name: value * scale_all for name, value in untracked.items()})
    return out


class TestCheck:
    def test_identical_run_passes(self, gate):
        ok, lines = gate.check(_medians(), _medians())
        assert ok, "\n".join(lines)

    def test_injected_2x_slowdown_fails(self, gate):
        current = _medians()
        current["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        ok, lines = gate.check(current, _medians())
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_small_jitter_passes(self, gate):
        ok, lines = gate.check(_medians(scale_tracked=1.15), _medians())
        assert ok, "\n".join(lines)

    def test_uniformly_slow_machine_passes_normalised(self, gate):
        # everything 2x slower = a slower runner, not a regression
        ok, lines = gate.check(_medians(scale_all=2.0), _medians())
        assert ok, "\n".join(lines)

    def test_uniformly_slow_machine_fails_raw(self, gate):
        ok, _ = gate.check(_medians(scale_all=2.0), _medians(),
                           normalize=False)
        assert not ok

    def test_missing_tracked_benchmark_fails(self, gate):
        current = _medians()
        del current["benchmarks/bench_engine.py::test_sweep_cache_hit_rate[QFT]"]
        ok, lines = gate.check(current, _medians())
        assert not ok
        assert any("MISSING" in line for line in lines)

    def test_disjoint_runs_fail(self, gate):
        ok, _ = gate.check({"benchmarks/bench_new.py::test_x": 1.0},
                           _medians())
        assert not ok


def _bench_json(path, medians):
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"median": value}}
            for name, value in medians.items()
        ]
    }
    path.write_text(json.dumps(payload))


class TestCli:
    def test_update_then_gate_round_trip(self, gate, tmp_path):
        bench = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        _bench_json(bench, _medians())
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert gate.main([str(bench), "--baseline", str(baseline)]) == 0
        # the recorded threshold is live config, not a dead field
        assert gate.baseline_threshold(str(baseline)) == gate.DEFAULT_THRESHOLD

        slow = tmp_path / "slow.json"
        medians = _medians()
        medians["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        _bench_json(slow, medians)
        assert gate.main([str(slow), "--baseline", str(baseline)]) == 1

    def test_append_history_records_gate_run(self, gate, tmp_path):
        """--append-history lands one compacted bench.gate record with
        the normalised tracked ratios and the verdict."""
        from repro.obs.history import load_ledger

        bench = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        ledger = tmp_path / "history.jsonl"
        _bench_json(bench, _medians())
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--append-history", str(ledger)]) == 0

        slow = tmp_path / "slow.json"
        medians = _medians()
        medians["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        _bench_json(slow, medians)
        assert gate.main([str(slow), "--baseline", str(baseline),
                          "--append-history", str(ledger)]) == 1

        records = load_ledger(ledger)
        assert [r["kind"] for r in records] == ["bench.gate", "bench.gate"]
        passed, failed = records
        assert passed["extra"]["ok"] == 1
        assert passed["metrics"]["normalised.obs_overhead"] == pytest.approx(1.0)
        assert failed["extra"]["ok"] == 0
        assert failed["metrics"]["normalised.stochastic_shots"] > 1.5
        # the per-writer segments were compacted into the single
        # artifact file CI archives
        assert not list(tmp_path.glob("history.jsonl.*.seg"))

    def test_committed_baseline_tracks_every_hot_path(self, gate):
        """The real baseline.json must cover all tracked groups, so the
        gate in CI can never silently gate on nothing."""
        baseline = gate.load_baseline(gate.DEFAULT_BASELINE)
        groups = {gate.tracked_group(name) for name in baseline}
        assert groups >= {g for g, _ in gate.TRACKED_PATTERNS}


class TestSeveralRuns:
    """Several harness files gate on each benchmark's median across
    them, and a re-baseline records that median."""

    SLOW = "benchmarks/bench_stochastic.py::test_serial_shots_per_second"

    def _runs(self, tmp_path, *slowdowns):
        paths = []
        for run, slowdown in enumerate(slowdowns):
            medians = _medians(scale_all=1.0 + 0.1 * run)
            medians[self.SLOW] *= slowdown
            path = tmp_path / f"bench-{run}.json"
            _bench_json(path, medians)
            paths.append(str(path))
        return paths

    def test_one_file_gives_its_own_medians(self, gate, tmp_path):
        (path,) = self._runs(tmp_path, 2.0)
        assert gate.load_runs([path]) == gate.load_medians(path)

    def test_median_across_runs(self, gate, tmp_path):
        paths = self._runs(tmp_path, 1.0, 3.0, 1.2)
        runs = gate.load_runs(paths)
        assert runs[self.SLOW] == pytest.approx(
            _medians()[self.SLOW] * 1.2 * 1.2)
        # a benchmark missing from one run takes the median of the rest
        extra = "benchmarks/bench_other.py::test_only_once"
        payload = json.loads(open(paths[0]).read())
        payload["benchmarks"].append(
            {"fullname": extra, "stats": {"median": 0.5}})
        open(paths[0], "w").write(json.dumps(payload))
        assert gate.load_runs(paths)[extra] == 0.5

    def test_gate_reads_the_median_run(self, gate, tmp_path):
        baseline = tmp_path / "baseline.json"
        _bench_json(baseline.with_suffix(".src"), _medians())
        assert gate.main([str(baseline.with_suffix(".src")), "--baseline",
                          str(baseline), "--update-baseline"]) == 0
        # one slow run among three passes; two fail
        assert gate.main([*self._runs(tmp_path, 1.0, 2.0, 1.0),
                          "--baseline", str(baseline)]) == 0
        assert gate.main([*self._runs(tmp_path, 2.0, 2.0, 1.0),
                          "--baseline", str(baseline)]) == 1

    def test_update_baseline_records_the_median(self, gate, tmp_path):
        paths = self._runs(tmp_path, 1.0, 3.0, 1.2)
        baseline = tmp_path / "baseline.json"
        assert gate.main([*paths, "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert gate.load_baseline(str(baseline)) == gate.load_runs(paths)
        payload = json.loads(baseline.read_text())
        assert payload["source"] == "bench-0.json, bench-1.json, bench-2.json"
        assert gate.main([*paths, "--baseline", str(baseline)]) == 0
