"""Tests for repro.obs.profile: opt-in per-job resource capture.

Profiles attach to ``job.execute`` spans — including spans merged back
from pool workers — and the report CLI renders them as a resource
table.  Without a trace there is nowhere to put a profile, so untraced
jobs are never profiled.  The switch is read at each traced job, so
turning it on between two batches profiles the second.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.tilt import TiltDevice
from repro.exec import ExecutionEngine, JobSpec
from repro.noise.parameters import NoiseParameters
from repro.obs.profile import PROFILE_ENV_VAR, JobProfiler, start_job_profile
from repro.obs.report import format_report, load_trace
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _profile_env_off(monkeypatch):
    """Each test starts with profiling off; tests opt in explicitly."""
    monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)


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


class TestProfile:
    @pytest.mark.parametrize("raw, expected", [
        ("", None), ("0", None), ("off", None), ("no", None),
        ("1", "cpu"), ("cpu", "cpu"), ("yes", "cpu"),
    ])
    def test_mode_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv(PROFILE_ENV_VAR, raw)
        profiler = start_job_profile()
        mode = None if profiler is None else profiler.finish()["mode"]
        assert mode == expected

    def test_start_job_profile_off_is_none(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert start_job_profile() is None

    def test_switch_is_read_at_each_traced_batch(self, tmp_path,
                                                 monkeypatch):
        """Setting the variable between two batches of one engine
        profiles the second batch, with no reset call."""
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=1, trace=path)
        first, second = _specs()
        engine.run([first])
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        engine.run([second])
        jobs = {job.attrs["label"]: job.attrs
                for job in load_trace(str(path)).named("job.execute")}
        assert "profile" not in jobs["tilt-a"]
        assert jobs["ideal-a"]["profile"]["mode"] == "cpu"

    def test_cpu_profile_payload_shape(self):
        profiler = JobProfiler()
        sum(i * i for i in range(20000))  # burn a little CPU
        payload = profiler.finish()
        assert payload["mode"] == "cpu"
        assert payload["cpu_user_s"] >= 0.0
        assert payload["cpu_system_s"] >= 0.0
        # POSIX: rusage fields present and sane
        assert payload["max_rss_kb"] > 0
        assert payload["minor_faults"] >= 0
        json.dumps(payload)  # span attrs must serialise as-is

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_profiled_spans_carry_profile_attrs(
            self, tmp_path, monkeypatch, workers):
        """Profiles ride job.execute spans — including spans merged
        back from pool-worker sidecar segments."""
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        path = tmp_path / "t.jsonl"
        engine = ExecutionEngine(workers=workers, trace=path)
        engine.run(_specs())
        view = load_trace(str(path))
        jobs = view.named("job.execute")
        assert jobs
        for job in jobs:
            profile = job.attrs["profile"]
            assert profile["mode"] == "cpu"
            assert profile["cpu_user_s"] >= 0.0

    def test_untraced_jobs_are_never_profiled(self, monkeypatch, tmp_path):
        """No span, nowhere to put the data: the profiler is skipped."""
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        monkeypatch.delenv("TILT_REPRO_TRACE", raising=False)
        monkeypatch.delenv("TILT_REPRO_HISTORY", raising=False)
        monkeypatch.chdir(tmp_path)
        results = ExecutionEngine(workers=1).run(_specs())
        assert len(results) == 2
        assert list(tmp_path.iterdir()) == []

    def test_report_renders_resource_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        path = tmp_path / "t.jsonl"
        ExecutionEngine(workers=1, trace=path).run(_specs())
        rendered = format_report(load_trace(str(path)))
        assert "Per-job resources" in rendered
        assert "cpu user" in rendered
        assert "tilt" in rendered and "ideal" in rendered
        assert "heaviest" in rendered

    def test_unprofiled_trace_has_no_resource_section(self):
        view = load_trace(str(FIXTURES / "trace_fixture.jsonl"))
        assert "Per-job resources" not in format_report(view)
