"""Execution-engine benchmarks: caching, deduplication and pooled fan-out.

Tracks the acceptance behaviour of :mod:`repro.exec`: a repeated
MaxSwapLen sweep must be served from the compile/simulate cache, and a
pooled sweep must produce exactly the points of the serial sweep.  The
wall-clock benefit of ``workers=4`` is only measurable on a multi-core
machine, so the speed assertion is informational (recorded in
``extra_info``) rather than enforced.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import experiments
from repro.core.sweep import max_swap_len_sweep
from repro.exec import ExecutionEngine
from repro.workloads.suite import build_workload, routing_suite

ROUTING_WORKLOADS = [spec.name for spec in routing_suite()]


@pytest.mark.parametrize("name", ROUTING_WORKLOADS)
def test_sweep_cache_hit_rate(benchmark, name, scale, noise):
    """A repeated sweep is free: every point is a cache hit.

    ``engine.stats.reset()`` between the cold and warm passes makes each
    phase report its own cache-hit/dedup counters (recorded in
    ``extra_info`` and asserted per phase) instead of cumulative totals.
    """
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    engine = ExecutionEngine(workers=1)
    cold = max_swap_len_sweep(
        circuit, device,
        base_config=experiments.ROUTING_STUDY_CONFIG, noise_params=noise,
        engine=engine,
    )
    cold_stats = engine.stats.summary()
    assert engine.stats.cache_hits == 0
    assert engine.stats.jobs_executed == len(cold)
    engine.stats.reset()

    warm = benchmark.pedantic(
        max_swap_len_sweep, args=(circuit, device),
        kwargs={"base_config": experiments.ROUTING_STUDY_CONFIG,
                "noise_params": noise, "engine": engine},
        iterations=1, rounds=1,
    )
    assert warm == cold
    assert engine.stats.cache_hits == len(cold)
    assert engine.stats.jobs_executed == 0
    benchmark.extra_info["engine_cold"] = cold_stats
    benchmark.extra_info["engine_warm"] = engine.stats.summary()


def test_pooled_sweep_matches_serial(scale, noise):
    """workers=4 produces bit-identical sweep points to workers=1."""
    name = ROUTING_WORKLOADS[0]
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    serial = max_swap_len_sweep(
        circuit, device,
        base_config=experiments.ROUTING_STUDY_CONFIG, noise_params=noise,
        engine=ExecutionEngine(workers=1),
    )
    pooled = max_swap_len_sweep(
        circuit, device,
        base_config=experiments.ROUTING_STUDY_CONFIG, noise_params=noise,
        engine=ExecutionEngine(workers=4),
    )
    assert pooled == serial


def test_backend_sweep_invariance(scale, noise):
    """The process pool (workers=2) produces the serial sweep bit for bit."""
    name = ROUTING_WORKLOADS[0]
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    sweeps = {
        workers: max_swap_len_sweep(
            circuit, device,
            base_config=experiments.ROUTING_STUDY_CONFIG, noise_params=noise,
            engine=ExecutionEngine(workers=workers),
        )
        for workers in (1, 2)
    }
    assert sweeps[2] == sweeps[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="pool speedup needs at least 4 cores")
def test_pooled_sweep_speedup(scale, noise):
    """On a 4-core machine the pooled figure-7 sweep beats serial by >=3x.

    Kept out of CI boxes with fewer cores; this is the acceptance check
    from the engine design note.
    """
    import time

    def run(workers: int) -> float:
        engine = ExecutionEngine(workers=workers)
        start = time.perf_counter()
        experiments.figure7(scale, noise_params=noise, engine=engine)
        return time.perf_counter() - start

    serial_s = run(1)
    pooled_s = run(4)
    assert pooled_s * 3.0 <= serial_s, (serial_s, pooled_s)
