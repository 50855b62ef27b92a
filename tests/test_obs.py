"""Tests for the observability plane (repro.obs) and its engine hooks.

Four layers:

* metrics — counter/gauge/histogram semantics, the bounded histogram
  tail, registry determinism, and ``EngineStats`` as a view over one
  (including the ``job_times_s`` growth cap with a stable ``to_dict``);
* trace recorder — JSONL round trips, torn-line tolerance, span
  nesting, activation scoping, worker sidecar segments and their merge;
* traced execution — the span tree a traced engine writes, worker spans
  from the process pool, **bit-identity of traced vs untraced runs,
  serial and pooled** (the invariant that tracing only observes), and
  the structured ``describe_config`` / manifest provenance plumbing;
* the offline report — re-parenting by spec key, golden output on the
  committed fixture trace, and the cross-run diff.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.tilt import TiltDevice
from repro.exceptions import ReproError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.engine import EngineStats
from repro.exec.sampling import run_sampled_job
from repro.exec.store import RunManifest, RunStore, collect_provenance
from repro.noise.parameters import NoiseParameters
from repro.obs import profile as obs_profile
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import format_diff, format_report, load_trace
from repro.obs.trace import (
    NULL_TRACE,
    TRACE_ENV_VAR,
    TraceRecorder,
    activate,
    current_trace,
    load_records,
    resolve_trace,
    worker_recorder,
)
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _small_batch() -> list[JobSpec]:
    """Analytic tilt + ideal jobs plus sampled shards, all cheap."""
    noise = NoiseParameters.paper_defaults()
    tilt = TiltDevice(num_qubits=8, head_size=4)
    specs = [
        JobSpec(circuit=bv_workload(8), device=tilt, noise=noise,
                label="tilt-a"),
        JobSpec(circuit=qft_workload(4),
                device=IdealTrappedIonDevice(num_qubits=4),
                backend="ideal", noise=noise, label="ideal-a"),
        JobSpec(circuit=qft_workload(4),
                device=IdealTrappedIonDevice(num_qubits=4),
                backend="ideal", noise=noise, shots=32, seed=3,
                label="sampled-a"),
        JobSpec(circuit=qft_workload(4),
                device=IdealTrappedIonDevice(num_qubits=4),
                backend="ideal", noise=noise, shots=32, seed=3,
                shot_offset=32, label="sampled-b"),
    ]
    return specs


def _structural(result):
    """Result content minus wall-clock noise (the bit-identity view)."""
    shot = None
    if result.shot is not None:
        shot = (result.shot.shots, result.shot.successes,
                result.shot.seed)
    return (
        result.key,
        result.backend,
        result.simulation.success_rate if result.simulation else None,
        result.stats.num_swaps if result.stats else None,
        shot,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_resets(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.to_json() == 3.5
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_holds_last_value(self):
        gauge = Gauge("g")
        gauge.set(4)
        gauge.set(2)
        assert gauge.to_json() == 2.0

    def test_histogram_moments_are_exact_and_tail_is_bounded(self):
        hist = Histogram("h", tail_size=8)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.total == sum(range(100))
        assert hist.minimum == 0.0
        assert hist.maximum == 99.0
        # the tail holds only the most recent 8, oldest first
        assert hist.tail == [float(v) for v in range(92, 100)]
        # quantiles come from the tail window
        assert hist.quantile(1.0) == 99.0
        payload = hist.to_json()
        assert payload["count"] == 100
        assert payload["max"] == 99.0
        assert set(payload) == {"count", "sum", "mean", "min", "max",
                                "p50", "p90", "p99"}
        # quantiles are tail-window ranks: p99 of the 8-value tail is
        # its maximum, p50 its lower median
        assert payload["p99"] == 99.0
        assert payload["p50"] == hist.quantile(0.5)

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")
        registry.histogram("h")
        assert "h" in registry
        assert len(registry) == 2

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.histogram("c").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        json.dumps(snapshot)  # must serialise as-is
        registry.reset()
        assert registry.counter("a").value == 0.0
        assert registry.histogram("c").count == 0


class TestEngineStats:
    def test_counter_surface_still_reads_and_writes(self):
        stats = EngineStats()
        stats.cache_hits += 3
        stats.jobs_submitted = 5
        assert stats.cache_hits == 3
        assert stats.cache_misses == 2
        assert isinstance(stats.cache_hits, int)

    def test_to_dict_shape_is_stable(self):
        stats = EngineStats()
        payload = stats.to_dict()
        assert list(payload) == [
            "jobs_submitted", "jobs_executed", "cache_hits",
            "deduplicated", "cache_misses", "cache_hit_rate",
            "execution_time_s", "batch_time_s",
        ]
        json.dumps(payload)

    def test_job_times_growth_is_capped(self):
        stats = EngineStats()
        for value in range(EngineStats.JOB_TIME_TAIL * 2):
            stats._job_times.observe(float(value))
        assert len(stats.job_times_s) == EngineStats.JOB_TIME_TAIL
        # the exact totals survive the cap
        hist = stats.metrics.histogram("engine.job_time_s")
        assert hist.count == EngineStats.JOB_TIME_TAIL * 2
        stats.reset()
        assert stats.job_times_s == []


# ----------------------------------------------------------------------
# Trace recorder mechanics
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_span_nesting_round_trips_through_jsonl(self, tmp_path):
        trace = TraceRecorder(tmp_path / "t.jsonl")
        with trace.span("outer", a=1) as outer:
            with trace.span("inner"):
                trace.event("tick", n=2)
            outer.add(b=2)
        records = load_records(tmp_path / "t.jsonl")
        by_name = {r.get("name"): r for r in records if "name" in r}
        inner, tick = by_name["inner"], by_name["tick"]
        outer_rec = by_name["outer"]
        assert outer_rec["parent"] is None
        assert outer_rec["attrs"] == {"a": 1, "b": 2}
        assert inner["parent"] == outer_rec["id"]
        assert tick["span"] == inner["id"]
        assert records[0]["kind"] == "meta"

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = TraceRecorder(path)
        with trace.span("kept"):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"span","na')  # killed mid-append
        names = [r.get("name") for r in load_records(path)]
        assert names == [None, "kept"]

    def test_activate_scopes_and_restores(self, tmp_path):
        trace = TraceRecorder(tmp_path / "t.jsonl")
        assert current_trace() is NULL_TRACE
        with activate(trace):
            assert current_trace() is trace
            with activate(NULL_TRACE):
                assert current_trace() is NULL_TRACE
            assert current_trace() is trace
        assert current_trace() is NULL_TRACE

    def test_resolve_trace_env_var_and_sharing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert resolve_trace(None) is NULL_TRACE
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRACE_ENV_VAR, str(target))
        via_env = resolve_trace(None)
        assert via_env.enabled and via_env.path == str(target)
        # same path -> same recorder (one writer per file per process)
        assert resolve_trace(str(target)) is via_env

    def test_worker_segments_merge_into_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = TraceRecorder(path)
        sidecar = worker_recorder(str(path))
        with sidecar.span("job.execute", spec_key="k1"):
            pass
        assert glob.glob(str(path) + ".*")  # sidecar exists on disk
        merged = trace.merge_segments()
        assert merged == 1
        assert glob.glob(str(path) + ".*") == []  # folded and unlinked
        names = [r.get("name") for r in load_records(path)]
        assert names.count("job.execute") == 1

    def test_null_trace_is_inert(self):
        with NULL_TRACE.span("anything", x=1) as span:
            span.add(y=2)
        NULL_TRACE.event("nothing")
        NULL_TRACE.metrics({})
        assert NULL_TRACE.merge_segments() == 0
        assert NULL_TRACE.path is None


# ----------------------------------------------------------------------
# Traced execution
# ----------------------------------------------------------------------
class TestTracedEngine:
    def test_serial_batch_writes_the_span_tree(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=1, trace=path)
        engine.run(_small_batch())
        view = load_trace(str(path))
        assert len(view.named("engine.batch")) == 1
        batch = view.named("engine.batch")[0]
        child_names = sorted({c.name for c in batch.children})
        assert child_names == ["engine.cache_lookup", "engine.dispatch",
                               "engine.flush"]
        assert batch.attrs["executed"] == 4
        assert len(view.named("job.execute")) == 4
        done_events = [e for e in view.events
                       if e.get("name") == "job.done"]
        assert len(done_events) == 4
        assert view.metrics  # snapshot written after the batch

    def test_cache_hits_show_in_second_batch_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=1, trace=path)
        engine.run(_small_batch())
        engine.run(_small_batch())
        batches = load_trace(str(path)).named("engine.batch")
        assert [b.attrs["cache_hits"] for b in batches] == [0, 4]
        assert [b.attrs["executed"] for b in batches] == [4, 0]

    def test_process_pool_worker_spans_merge_back(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=2, trace=path)
        engine.run(_small_batch())
        assert glob.glob(str(path) + ".*") == []  # no leftover sidecars
        view = load_trace(str(path))
        jobs = view.named("job.execute")
        assert len(jobs) == 4
        assert any(j.pid != os.getpid() for j in jobs), (
            "expected job spans from pool worker processes"
        )
        # every worker span was re-parented under this trace's spans
        for job in jobs:
            assert job.parent in view.spans

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_traced_and_untraced_results_are_bit_identical(
            self, workers, tmp_path, monkeypatch):
        specs = _small_batch()
        plain = ExecutionEngine(workers=workers).run(specs)
        traced = ExecutionEngine(
            workers=workers, trace=tmp_path / "t.jsonl",
        ).run(specs)
        # full instrumentation — per-job profiling and a history
        # ledger — must stay pure observation too
        monkeypatch.setenv(obs_profile.PROFILE_ENV_VAR, "1")
        obs_profile.refresh_mode()
        try:
            profiled = ExecutionEngine(
                workers=workers, trace=tmp_path / "p.jsonl",
                history=tmp_path / "history.jsonl",
            ).run(specs)
        finally:
            monkeypatch.delenv(obs_profile.PROFILE_ENV_VAR, raising=False)
            obs_profile.refresh_mode()
        assert ([_structural(r) for r in plain]
                == [_structural(r) for r in traced]
                == [_structural(r) for r in profiled])

    def test_sampling_fanout_span_wraps_the_shard_batch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=1, trace=path)
        spec = _small_batch()[2]
        run_sampled_job(spec, shards=2, engine=engine)
        view = load_trace(str(path))
        fanouts = view.named("sampling.fanout")
        assert len(fanouts) == 1
        assert fanouts[0].attrs["shards"] == 2
        child_names = {c.name for c in fanouts[0].children}
        assert "engine.batch" in child_names

    def test_tracing_off_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        engine = ExecutionEngine(workers=1)
        assert engine.trace is NULL_TRACE
        engine.run(_small_batch()[:2])
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Structured backend description + manifest provenance
# ----------------------------------------------------------------------
class TestDescribeConfig:
    def test_backend_configs_are_structured(self):
        assert SerialBackend().describe_config() == {
            "backend": "serial", "workers": 1,
        }
        process = ProcessPoolBackend(workers=3).describe_config()
        assert process["backend"] == "process"
        assert process["workers"] == 3
        assert process["chunk_size"] is None
        assert process["chunk_groups_per_worker"] == 4

    def test_engine_reports_resolved_backend_config(self):
        engine = ExecutionEngine(workers=2)
        config = engine.describe_backend_config()
        assert config["backend"] == "process"
        assert config["workers"] == 2
        assert engine.describe_backend_config(workers=4)["workers"] == 4

    def test_manifest_round_trips_backend_config(self, tmp_path):
        store = RunStore(tmp_path / "store")
        manifest = RunManifest(
            store_root=store.root,
            backend="process(workers=2, chunk_size=auto)",
            backend_config={"backend": "process", "workers": 2},
        )
        store.write_manifest(manifest)
        loaded = store.read_manifest()
        assert loaded.backend_config == {"backend": "process",
                                         "workers": 2}
        # legacy manifests without the field still load
        legacy = RunManifest.from_json({"store_root": store.root})
        assert legacy.backend_config == {}

    def test_provenance_records_the_trace_path(self):
        payload = collect_provenance(seed=1, shots=2, trace="/tmp/t.jsonl")
        assert payload["trace"] == "/tmp/t.jsonl"
        assert collect_provenance()["trace"] is None


# ----------------------------------------------------------------------
# The offline report
# ----------------------------------------------------------------------
class TestReport:
    def test_orphan_job_spans_are_reparented_by_spec_key(self):
        view = load_trace(str(FIXTURES / "trace_fixture.jsonl"))
        jobs = {j.attrs["spec_key"]: j for j in view.named("job.execute")}
        dispatch = view.named("engine.dispatch")[0]
        assert jobs["kA"].parent == dispatch.id
        assert jobs["kB"].parent == dispatch.id

    def test_golden_report_output(self):
        view = load_trace(str(FIXTURES / "trace_fixture.jsonl"))
        expected = (FIXTURES / "trace_fixture_report.txt").read_text(
            encoding="utf-8"
        )
        assert format_report(view) == expected

    def test_diff_of_a_trace_with_itself_is_zero(self):
        view = load_trace(str(FIXTURES / "trace_fixture.jsonl"))
        other = load_trace(str(FIXTURES / "trace_fixture.jsonl"))
        rendered = format_diff(view, other)
        delta_column = [line.split()[-1] for line in
                        rendered.splitlines()[5:]]
        assert all(value in ("+0", "+0.0ms") for value in delta_column), (
            rendered
        )

    def test_cli_module_invocation(self, tmp_path):
        completed = subprocess.run(
            (sys.executable, "-m", "repro.obs.report",
             str(FIXTURES / "trace_fixture.jsonl")),
            capture_output=True, text=True, timeout=60,
            cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "Span tree" in completed.stdout
        assert "Per-backend latency" in completed.stdout

    @pytest.mark.parametrize("content", [
        "",                                  # crashed before first flush
        '{"v": 1, "kind": "span", "na',      # single torn line
    ], ids=["empty", "torn-only"])
    def test_cli_handles_recordless_trace_cleanly(self, tmp_path, content):
        """An existing but empty (or all-torn) trace is a calm exit 0:
        CI pipelines render the report unconditionally and a run that
        died before its first flush must not go red twice."""
        recordless = tmp_path / "empty.jsonl"
        recordless.write_text(content, encoding="utf-8")
        completed = subprocess.run(
            (sys.executable, "-m", "repro.obs.report", str(recordless)),
            capture_output=True, text=True, timeout=60,
            cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "no trace records" in completed.stdout

    def test_cli_rejects_missing_trace_file(self, tmp_path):
        completed = subprocess.run(
            (sys.executable, "-m", "repro.obs.report",
             str(tmp_path / "never_written.jsonl")),
            capture_output=True, text=True, timeout=60,
            cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 1
        assert "no such trace file" in completed.stderr

    def test_report_on_a_real_traced_run(self, tmp_path):
        """A live end-to-end check: trace a run, render its report."""
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=2, trace=path)
        engine.run(_small_batch())
        engine.run(_small_batch())
        rendered = format_report(load_trace(str(path)))
        assert "engine.batch" in rendered
        assert "process" in rendered
        assert "cache hits" in rendered
