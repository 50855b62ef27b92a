"""Observability-overhead benchmarks: instrumentation must stay cheap.

Three benchmarks run the *same* engine batch — a mixed analytic workload
executed serially so backend scheduling noise stays out of the
measurement — at increasing instrumentation levels: untraced, traced
(:class:`TraceRecorder` writing JSONL), and traced with per-job resource
profiling on.  The regression gate tracks all three as the
``obs_overhead`` group: a slowdown means instrumentation leaked onto the
hot path (untraced: the ``NULL_TRACE`` no-ops grew a cost; traced: write
amplification; profiled: the per-job rusage snapshots).

Each round gets a fresh engine (and a fresh trace file) via
``benchmark.pedantic`` setup, so every measured pass is a cold cache
doing the full lookup → dispatch → flush work.
"""

from __future__ import annotations

import itertools
import os

from repro.analysis import experiments
from repro.core.sweep import max_swap_len_sweep
from repro.exec import ExecutionEngine
from repro.obs import profile as obs_profile
from repro.obs.trace import TraceRecorder
from repro.workloads.suite import build_workload, routing_suite

_TRACE_SEQ = itertools.count()


def _sweep_inputs(scale):
    name = routing_suite()[0].name
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    return circuit, device


def _run_batch(circuit, device, noise, engine):
    return max_swap_len_sweep(
        circuit, device,
        base_config=experiments.ROUTING_STUDY_CONFIG,
        noise_params=noise, engine=engine,
    )


def test_untraced_engine_batch(benchmark, scale, noise):
    """The tracing-off cost: NULL_TRACE spans must stay no-ops."""
    circuit, device = _sweep_inputs(scale)

    def setup():
        return (circuit, device, noise, ExecutionEngine(workers=1)), {}

    points = benchmark.pedantic(_run_batch, setup=setup,
                                iterations=1, rounds=5)
    assert points


def test_traced_engine_batch(benchmark, scale, noise, tmp_path):
    """The tracing-on cost: span/event JSONL appends per batch."""
    circuit, device = _sweep_inputs(scale)

    def setup():
        # a fresh file per round: recorders are shared per path, and an
        # append-only file growing across rounds would skew nothing but
        # still muddies the per-round record count below
        trace = TraceRecorder(
            tmp_path / f"bench-{next(_TRACE_SEQ)}.jsonl"
        )
        engine = ExecutionEngine(workers=1, trace=trace)
        return (circuit, device, noise, engine), {}

    points = benchmark.pedantic(_run_batch, setup=setup,
                                iterations=1, rounds=5)
    assert points
    traces = sorted(tmp_path.glob("bench-*.jsonl"))
    assert traces and os.path.getsize(traces[-1]) > 0


def test_profiled_engine_batch(benchmark, scale, noise, tmp_path,
                               monkeypatch):
    """Tracing + per-job profiling: the rusage-snapshot cost."""
    circuit, device = _sweep_inputs(scale)
    monkeypatch.setenv(obs_profile.PROFILE_ENV_VAR, "1")
    obs_profile.refresh_mode()

    def setup():
        trace = TraceRecorder(
            tmp_path / f"bench-prof-{next(_TRACE_SEQ)}.jsonl"
        )
        engine = ExecutionEngine(workers=1, trace=trace)
        return (circuit, device, noise, engine), {}

    try:
        points = benchmark.pedantic(_run_batch, setup=setup,
                                    iterations=1, rounds=5)
    finally:
        monkeypatch.delenv(obs_profile.PROFILE_ENV_VAR, raising=False)
        obs_profile.refresh_mode()
    assert points
