"""Correlated-noise scenario benchmarks.

Tracks the cost of the scenario machinery on top of the PR-1/PR-2 stack:
the analytic scenario-comparison study (site expansion + the exact burst
dynamic program for every workload × scenario cell), the analytic
``run(scenario=)`` of all three simulators on precompiled programs (the
paper-scale search's hot path), the throughput of worst-case and
leakage stochastic sampling, and the acceptance behaviour that baseline
scenario keys leave the content-hash cache untouched.
"""

from __future__ import annotations

from repro.analysis import experiments
from repro.analysis.scenario_study import (
    DEFAULT_SCENARIOS,
    attribution_rows,
    scenario_comparison,
)
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.compiler.pipeline import (
    CompilerConfig,
    LinQCompiler,
    lower_to_native,
)
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exec import ExecutionEngine, JobSpec, run_sampled_job, spec_key
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.suite import build_workload

#: Enough shots that correlated sampling (not compilation) dominates.
BENCH_SHOTS = 5_000

#: Timed rounds of the correlated-sampling benchmark (its median).
ROUNDS = 5


def _spec(scale, noise, scenario=None, shots=0) -> JobSpec:
    """Build a QFT spec; ``scenario=None`` omits the field entirely."""
    name = "QFT"
    kwargs = dict(
        circuit=build_workload(name, scale),
        device=experiments.device_for(scale, name),
        config=CompilerConfig(),
        noise=noise,
        shots=shots,
        seed=2021 if shots else 0,
        label=f"{name}/{scenario or 'default'}",
    )
    if scenario is not None:
        kwargs["scenario"] = scenario
    return JobSpec(**kwargs)


def test_scenario_study_smoke(benchmark, scale, noise):
    """The full analytic comparison study (the CI smoke metric)."""
    rows = benchmark.pedantic(
        scenario_comparison, args=(scale,),
        kwargs={"noise_params": noise, "engine": ExecutionEngine(workers=1)},
        iterations=1, rounds=1,
    )
    scenarios = {row.scenario for row in rows}
    workloads = {row.workload for row in rows}
    assert scenarios == set(DEFAULT_SCENARIOS)
    assert len(workloads) >= 3
    attribution = attribution_rows(rows)
    combined = [row for row in attribution if "combined" in row.mechanism]
    benchmark.extra_info["cells"] = len(rows)
    benchmark.extra_info["max_combined_loss_decades"] = max(
        row.loss_decades for row in combined
    )


def test_scenario_analytics(benchmark, scale, noise):
    """Analytic ``run(scenario=)`` of QFT on TILT, QCCD and the ideal
    device under crosstalk, leakage and heating bursts, from programs
    compiled outside the timer.

    Each run replays its program once into a timeline, expands it into
    error sites and solves the exact per-window analytics.
    """
    circuit = build_workload("QFT", scale)
    tilt = experiments.device_for(scale, "QFT")
    qccd = QccdDevice(num_qubits=circuit.num_qubits,
                      trap_capacity=17 if scale == "paper" else 5)
    programs = [
        (TiltSimulator(tilt, noise),
         LinQCompiler(tilt, CompilerConfig()).compile(circuit), {}),
        (QccdSimulator(qccd, noise), QccdCompiler(qccd).compile(circuit),
         {"circuit_name": circuit.name}),
        (IdealSimulator(IdealTrappedIonDevice(circuit.num_qubits), noise),
         circuit, {"native": lower_to_native(circuit)}),
    ]

    def run_all():
        return [simulator.run(program, scenario=scenario, **inputs)
                for scenario in ("crosstalk", "leakage", "heating_burst")
                for simulator, program, inputs in programs]

    results = benchmark.pedantic(run_all, rounds=15, warmup_rounds=1)
    assert len(results) == 9
    benchmark.extra_info["sites"] = sum(
        int(sum(value for key, value in result.extras.items()
                if key.startswith("sites_")))
        for result in results
    )


def test_correlated_sampling_shots_per_second(benchmark, scale, noise):
    """Throughput of worst-case correlated sampling (BENCH_* trajectory).

    Each round gets a fresh engine: one kept across rounds would serve
    rounds 2+ from its cache.
    """
    spec = _spec(scale, noise, "worst_case", shots=BENCH_SHOTS)

    def fresh_engine():
        return (spec,), {"shards": 1, "engine": ExecutionEngine(workers=1)}

    result = benchmark.pedantic(run_sampled_job, setup=fresh_engine,
                                rounds=ROUNDS)
    assert result.shot is not None and result.shot.shots == BENCH_SHOTS
    assert result.shot.mechanism_counts
    benchmark.extra_info["shots"] = BENCH_SHOTS
    benchmark.extra_info["shots_per_second"] = round(
        BENCH_SHOTS / benchmark.stats.stats.mean
    )
    benchmark.extra_info["sampled_success"] = result.shot.success_rate
    benchmark.extra_info["analytic_success"] = (
        result.shot.expected_success_rate
    )


def test_leakage_sampling_shots_per_second(benchmark, scale, noise):
    """Throughput of leakage sampling: one scan group plus the per-shot
    leak rule, where worst-case sampling above also climbs burst rows.

    Each round gets a fresh engine, as above.
    """
    spec = _spec(scale, noise, "leakage", shots=BENCH_SHOTS)

    def fresh_engine():
        return (spec,), {"shards": 1, "engine": ExecutionEngine(workers=1)}

    result = benchmark.pedantic(run_sampled_job, setup=fresh_engine,
                                rounds=ROUNDS)
    assert result.shot is not None and result.shot.shots == BENCH_SHOTS
    assert result.shot.mechanism_counts.get("leakage")
    benchmark.extra_info["shots"] = BENCH_SHOTS
    benchmark.extra_info["shots_per_second"] = round(
        BENCH_SHOTS / benchmark.stats.stats.mean
    )


def test_baseline_scenario_preserves_cache_keys(scale, noise):
    """Baseline scenario specs hash identically to pre-scenario specs."""
    import dataclasses

    explicit = _spec(scale, noise, "baseline")
    # a spec that never mentions scenarios shares the baseline key
    assert spec_key(explicit) == spec_key(_spec(scale, noise))
    assert spec_key(explicit) != spec_key(
        dataclasses.replace(explicit, scenario="worst_case")
    )
    # a warm cache serves the baseline job regardless of how the spec
    # spells its scenario
    engine = ExecutionEngine(workers=1)
    engine.run_one(explicit)
    engine.stats.reset()
    again = engine.run_one(_spec(scale, noise, "baseline"))
    assert again.cache_hit
    assert engine.stats.jobs_executed == 0
