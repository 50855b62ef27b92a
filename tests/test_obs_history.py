"""Tests for repro.obs.history: the persistent cross-run run ledger.

Pins the concurrency contract (per-writer segments, torn-line-tolerant
merge-on-load, duplicate-free two-process appends, idempotent compact),
the engine/search integration (one summarized record per traced batch
and per search, with backend config, provenance and latency quantiles
composed engine-side), and the CLI (golden trend/diff rendering,
empty-ledger exit 0, the ``--check`` trend gate).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.tilt import TiltDevice
from repro.exec import ExecutionEngine, JobSpec
from repro.exec.engine import reset_default_engine
from repro.noise.parameters import NoiseParameters
from repro.obs.history import (
    HISTORY_ENV_VAR,
    HISTORY_VERSION,
    MIN_CHECK_HISTORY,
    RunLedger,
    check_trends,
    flatten_record,
    load_ledger,
    main as history_main,
    new_record,
    resolve_ledger,
)
from repro.search import GridStrategy, SearchSpace, config_knob, run_search
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


def _specs() -> list[JobSpec]:
    noise = NoiseParameters.paper_defaults()
    return [
        JobSpec(circuit=bv_workload(8),
                device=TiltDevice(num_qubits=8, head_size=4),
                noise=noise, label="tilt-a"),
        JobSpec(circuit=qft_workload(4),
                device=IdealTrappedIonDevice(num_qubits=4),
                backend="ideal", noise=noise, label="ideal-a"),
    ]


# ----------------------------------------------------------------------
# Ledger mechanics
# ----------------------------------------------------------------------
class TestLedger:
    def test_append_lands_in_private_segment(self, tmp_path):
        path = tmp_path / "history.jsonl"
        ledger = RunLedger(path)
        record_id = ledger.append(new_record("engine.batch", label="x"))
        assert not path.exists()
        segments = list(tmp_path.glob("history.jsonl.*.seg"))
        assert len(segments) == 1
        (record,) = ledger.records()
        assert record["id"] == record_id
        assert record["kind"] == "engine.batch"
        assert record["v"] == HISTORY_VERSION
        assert record["pid"] == os.getpid()
        assert record["ts"] > 0
        assert record["host"]

    def test_load_merges_and_dedupes_by_id(self, tmp_path):
        path = tmp_path / "h.jsonl"
        shared = {"v": 1, "id": "dup", "ts": 1.0, "kind": "engine.batch"}
        path.write_text(json.dumps(shared) + "\n", encoding="utf-8")
        segment = tmp_path / "h.jsonl.host-1-abc.seg"
        segment.write_text(
            json.dumps(shared) + "\n"
            + json.dumps({"v": 1, "id": "new", "ts": 2.0,
                          "kind": "engine.batch"}) + "\n",
            encoding="utf-8",
        )
        records = load_ledger(path)
        assert [r["id"] for r in records] == ["dup", "new"]

    def test_torn_blank_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps({"v": 1, "id": "ok", "ts": 1.0,
                        "kind": "engine.batch"}) + "\n"
            + "\n"
            + json.dumps({"v": 99, "id": "foreign", "ts": 2.0}) + "\n"
            + '{"v": 1, "id": "torn", "ts": 3',
            encoding="utf-8",
        )
        assert [r["id"] for r in load_ledger(path)] == ["ok"]

    def test_compact_folds_segments_and_is_idempotent(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ledger = RunLedger(path)
        ids = [ledger.append(new_record("engine.batch", label=str(i)))
               for i in range(3)]
        assert ledger.compact() == 3
        assert path.exists()
        assert list(tmp_path.glob("h.jsonl.*.seg")) == []
        assert [r["id"] for r in load_ledger(path)] == ids
        # nothing left to claim; re-compacting never duplicates
        assert ledger.compact() == 0
        assert [r["id"] for r in load_ledger(path)] == ids

    def test_two_processes_append_without_losing_or_duplicating(
            self, tmp_path):
        """The RunStore contract: concurrent writers, merged read."""
        path = tmp_path / "h.jsonl"
        script = (
            "import sys\n"
            "from repro.obs.history import RunLedger, new_record\n"
            "ledger = RunLedger(sys.argv[1])\n"
            "for i in range(25):\n"
            "    ledger.append(new_record('engine.batch',"
            " label=f'{sys.argv[2]}-{i}'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        writers = [
            subprocess.Popen((sys.executable, "-c", script, str(path), tag),
                             env=env, cwd=REPO_ROOT)
            for tag in ("a", "b")
        ]
        for writer in writers:
            assert writer.wait(timeout=60) == 0
        records = load_ledger(path)
        assert len(records) == 50
        assert len({r["id"] for r in records}) == 50
        labels = {r["label"] for r in records}
        assert labels == {f"{tag}-{i}" for tag in "ab" for i in range(25)}
        # a third party can compact the whole set into the main file
        assert RunLedger(path).compact() == 50
        assert len(load_ledger(path)) == 50

    def test_resolve_ledger_shares_one_writer_per_path(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv(HISTORY_ENV_VAR, raising=False)
        assert resolve_ledger(None) is None
        ledger = RunLedger(tmp_path / "h.jsonl")
        assert resolve_ledger(ledger) is ledger
        via_path = resolve_ledger(tmp_path / "shared.jsonl")
        assert resolve_ledger(str(tmp_path / "shared.jsonl")) is via_path
        monkeypatch.setenv(HISTORY_ENV_VAR, str(tmp_path / "shared.jsonl"))
        assert resolve_ledger(None) is via_path


# ----------------------------------------------------------------------
# Engine / search integration
# ----------------------------------------------------------------------
class TestEngineHistory:
    def test_traced_batch_appends_one_summarized_record(self, tmp_path):
        history = tmp_path / "history.jsonl"
        trace = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=1, trace=trace, history=history)
        engine.run(_specs())
        (record,) = load_ledger(history)
        assert record["kind"] == "engine.batch"
        assert record["trace"] == str(trace)
        assert record["backend"]["backend"] == "serial"
        assert record["cache"]["jobs"] == 2
        assert record["cache"]["executed"] == 2
        assert record["cache"]["hit_ratio"] == 0.0
        # the engine's counters, in the shape search.run records carry
        assert record["metrics"] == engine.stats.to_dict()
        assert record["latency"]["count"] == 2
        assert set(record["latency"]) >= {"p50", "p90", "p99"}
        assert record["provenance"]["python"]
        assert "git_commit" in record["provenance"]
        flat = flatten_record(record)
        assert flat["cache.hit_ratio"] == 0.0
        assert flat["latency.p99"] > 0

    def test_warm_batch_records_full_hit_ratio(self, tmp_path):
        history = tmp_path / "history.jsonl"
        engine = ExecutionEngine(workers=1, history=history)
        engine.run(_specs())
        engine.run(_specs())
        records = load_ledger(history)
        assert [r["cache"]["hit_ratio"] for r in records] == [0.0, 1.0]
        # untraced engines still record history — just without a trace
        assert all("trace" not in r for r in records)

    def test_history_off_leaves_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(HISTORY_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        engine = ExecutionEngine(workers=1)
        assert engine.history is None
        engine.run(_specs())
        assert list(tmp_path.iterdir()) == []

    def test_search_appends_a_search_run_record(self, tmp_path):
        history = tmp_path / "history.jsonl"
        engine = ExecutionEngine(workers=1, history=history)
        space = SearchSpace(
            circuit=qft_workload(8),
            device=TiltDevice(num_qubits=8, head_size=8),
            knobs=[config_knob("max_swap_len", [7, 5])],
            config=None,
            noise=NoiseParameters.paper_defaults(),
        )
        result = run_search(space, GridStrategy(), engine=engine)
        records = load_ledger(history)
        kinds = [r["kind"] for r in records]
        # one record per engine batch (= search round) + the search
        assert kinds == ["engine.batch", "search.run"]
        search_record = records[-1]
        assert search_record["label"] == "grid"
        assert search_record["extra"]["strategy"] == "grid"
        assert search_record["extra"]["rounds"] == 1
        assert search_record["extra"]["points"] == len(result.points)
        assert search_record["extra"]["jobs_submitted"] == result.num_jobs
        assert search_record["metrics"] == result.engine_stats


# ----------------------------------------------------------------------
# Trend analysis and the CLI
# ----------------------------------------------------------------------
def _trend_ledger(tmp_path, p50_values):
    path = tmp_path / "h.jsonl"
    ledger = RunLedger(path)
    for index, p50 in enumerate(p50_values):
        ledger.append(new_record(
            "engine.batch",
            latency={"p50": p50},
            cache={"hit_ratio": 0.5},
        ) | {"ts": 1000.0 + index})
    return path


class TestTrendGate:
    def test_stable_history_passes(self, tmp_path):
        records = load_ledger(_trend_ledger(tmp_path, [0.01] * 4))
        ok, lines = check_trends(records)
        assert ok, "\n".join(lines)
        assert lines[-1].startswith("trend gate PASSED")

    def test_latency_spike_fails(self, tmp_path):
        records = load_ledger(_trend_ledger(tmp_path, [0.01, 0.01, 0.01,
                                                       0.05]))
        ok, lines = check_trends(records)
        assert not ok
        assert any("TREND REGRESSION" in line and "latency.p50" in line
                   for line in lines)

    def test_young_ledger_passes_vacuously(self, tmp_path):
        records = load_ledger(
            _trend_ledger(tmp_path, [0.01] * (MIN_CHECK_HISTORY - 1))
        )
        ok, lines = check_trends(records)
        assert ok
        assert any("skipped" in line for line in lines)

    def test_improvements_pass(self, tmp_path):
        records = load_ledger(_trend_ledger(tmp_path,
                                            [0.05, 0.05, 0.05, 0.01]))
        ok, _ = check_trends(records)
        assert ok


class TestCli:
    def test_golden_trend_output(self, capsys):
        assert history_main([str(FIXTURES / "history_fixture.jsonl")]) == 0
        expected = (FIXTURES / "history_fixture_trend.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected

    def test_golden_diff_output(self, capsys):
        assert history_main([str(FIXTURES / "history_fixture.jsonl"),
                             "--diff", "0", "3"]) == 0
        expected = (FIXTURES / "history_fixture_diff.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("content", [
        None,                              # never created
        "",                                # created, nothing flushed
        '{"v": 1, "kind": "engine.b',      # single torn line
    ], ids=["missing", "empty", "torn-only"])
    def test_recordless_ledger_is_a_clean_exit_zero(
            self, tmp_path, capsys, content):
        path = tmp_path / "h.jsonl"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert history_main([str(path)]) == 0
        assert "no history records" in capsys.readouterr().out

    def test_diff_index_out_of_range_exits_two(self, tmp_path, capsys):
        path = _trend_ledger(tmp_path, [0.01])
        assert history_main([str(path), "--diff", "0", "7"]) == 2
        assert "out of range" in capsys.readouterr().out

    def test_check_flag_gates_exit_code(self, tmp_path, capsys):
        good = _trend_ledger(tmp_path, [0.01] * 4)
        assert history_main([str(good), "--check"]) == 0
        bad = tmp_path / "bad" / "h.jsonl"
        ledger = RunLedger(bad)
        for index, p50 in enumerate([0.01, 0.01, 0.01, 0.05]):
            ledger.append(new_record("engine.batch",
                                     latency={"p50": p50})
                          | {"ts": 1000.0 + index})
        assert history_main([str(bad), "--check"]) == 1
        assert "TREND REGRESSION" in capsys.readouterr().out

    def test_compact_flag_folds_segments(self, tmp_path, capsys):
        path = _trend_ledger(tmp_path, [0.01, 0.02])
        assert list(tmp_path.glob("h.jsonl.*.seg"))
        assert history_main([str(path), "--compact"]) == 0
        assert "compacted 2 record(s)" in capsys.readouterr().out
        assert list(tmp_path.glob("h.jsonl.*.seg")) == []
        assert len(load_ledger(path)) == 2

    def test_module_invocation_contract(self):
        completed = subprocess.run(
            (sys.executable, "-m", "repro.obs.history",
             str(FIXTURES / "history_fixture.jsonl"), "--metric", "all"),
            capture_output=True, text=True, timeout=60,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "Run ledger: 5 records" in completed.stdout
        assert "extra.rounds" in completed.stdout
