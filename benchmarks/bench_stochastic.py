"""Stochastic-sampling benchmarks: shots/sec, serial vs pooled sharding.

Tracks the throughput of the :mod:`repro.sim.stochastic` subsystem on a
tier-1 workload and pins the acceptance behaviour of the engine fan-out:
sharded pooled runs must be bit-identical to the serial pass.  As with the
engine benchmarks, pool *speedup* is hardware-dependent and therefore
recorded in ``extra_info`` rather than asserted.

``test_serial_shots_per_second`` (the ratcheted BENCH_* trajectory
metric) times *sampling only*: the sampler is prebuilt through the
simulators' ``build_sampler`` seam so the timed region is exactly
``StochasticSampler.run``.  The whole-job path (compile + analytics +
sampling) is recorded separately by
``test_end_to_end_job_shots_per_second``, and
``test_batched_statevector_patterns`` covers the batched pattern
re-simulation kernel of :mod:`repro.sim.statevector`,
``test_sharded_sampling_shares_one_sampler`` a sharded few-shot job
whose shards share one compile and one sampler, and
``test_sampler_build`` the sampler builds of all three simulators.
"""

from __future__ import annotations

import dataclasses
import time

from repro.analysis import experiments
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.circuits.gate import Gate
from repro.compiler.pipeline import (
    CompilerConfig,
    LinQCompiler,
    lower_to_native,
)
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exec import ExecutionEngine, JobSpec, run_sampled_job
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.statevector import batch_probabilities_with_insertions
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.qft import qft_workload
from repro.workloads.suite import build_workload

#: Enough shots that sampling (not compilation) dominates the wall time.
BENCH_SHOTS = 20_000

#: Few enough shots over ``SHARDS`` shards that building each shard's
#: sampler, not drawing its shots, is the work the shards can share.
SHARED_SHOTS = 64
SHARDS = 4


def _spec(scale, noise, shots=BENCH_SHOTS) -> JobSpec:
    name = "QFT"
    return JobSpec(
        circuit=build_workload(name, scale),
        device=experiments.device_for(scale, name),
        config=CompilerConfig(),
        noise=noise,
        shots=shots,
        seed=2021,
        label=f"{name}/stochastic",
    )


def _sampler(scale, noise):
    """The prebuilt sampler of the benchmark workload (untimed setup)."""
    name = "QFT"
    device = experiments.device_for(scale, name)
    compiled = LinQCompiler(device, CompilerConfig()).compile(
        build_workload(name, scale)
    )
    return TiltSimulator(device, noise).build_sampler(compiled)


def test_serial_shots_per_second(benchmark, scale, noise):
    """Sampling-only serial throughput (the BENCH_* trajectory metric)."""
    sampler = _sampler(scale, noise)
    result = benchmark.pedantic(
        sampler.run, args=(BENCH_SHOTS,), kwargs={"seed": 2021},
        iterations=1, rounds=5, warmup_rounds=1,
    )
    assert result.shots == BENCH_SHOTS
    benchmark.extra_info["shots"] = BENCH_SHOTS
    benchmark.extra_info["shots_per_second"] = round(
        BENCH_SHOTS / benchmark.stats.stats.mean
    )
    benchmark.extra_info["sampled_success"] = result.success_rate
    benchmark.extra_info["analytic_success"] = result.expected_success_rate


def test_end_to_end_job_shots_per_second(benchmark, scale, noise):
    """Whole-job throughput: compile + analytics + sampling, one shard."""
    spec = _spec(scale, noise)
    result = benchmark.pedantic(
        run_sampled_job, args=(spec,),
        kwargs={"shards": 1, "engine": ExecutionEngine(workers=1)},
        iterations=1, rounds=1,
    )
    assert result.shot is not None and result.shot.shots == BENCH_SHOTS
    benchmark.extra_info["shots"] = BENCH_SHOTS
    benchmark.extra_info["shots_per_second"] = round(
        BENCH_SHOTS / benchmark.stats.stats.mean
    )
    benchmark.extra_info["sampled_success"] = result.shot.success_rate
    benchmark.extra_info["analytic_success"] = (
        result.shot.expected_success_rate
    )


def test_sharded_sampling_shares_one_sampler(benchmark, scale, noise):
    """A 4-shard serial run of a few-shot crosstalk job, cold each round.

    The shards run back to back in one batch, so they share one compile
    and one sampler.  Each round gets a fresh engine: one kept across
    rounds would serve rounds 2+ from its cache.
    """
    spec = dataclasses.replace(_spec(scale, noise, shots=SHARED_SHOTS),
                               scenario="crosstalk")

    def fresh_engine():
        return (spec,), {"shards": SHARDS,
                         "engine": ExecutionEngine(workers=1)}

    result = benchmark.pedantic(run_sampled_job, setup=fresh_engine,
                                rounds=7, warmup_rounds=1)
    assert result.shot is not None and result.shot.shots == SHARED_SHOTS
    benchmark.extra_info["shards"] = SHARDS


def test_sampler_build(benchmark, scale, noise):
    """Baseline and crosstalk sampler builds of QFT on TILT, QCCD and
    the ideal device, from programs compiled outside the timer.

    Each build replays its program once, recording its timeline as
    columns, and expands those into the sampler's site table.
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

    def build_all():
        return [simulator.build_sampler(program, scenario=scenario,
                                        **inputs)
                for scenario in ("baseline", "crosstalk")
                for simulator, program, inputs in programs]

    samplers = benchmark.pedantic(build_all, rounds=15, warmup_rounds=1)
    assert len(samplers) == 6
    benchmark.extra_info["sites"] = sum(len(s.table) for s in samplers)


def test_batched_statevector_patterns(benchmark):
    """Throughput of the batched pattern re-simulation kernel.

    One shared 10-qubit QFT base sequence, 64 members with distinct
    sparse Pauli insertions — the shape of the sampler's distinct
    triggered-error patterns.
    """
    circuit = qft_workload(10)
    gates = list(circuit)
    insertions = [
        {member % len(gates): [Gate("x", (member % circuit.num_qubits,))]}
        for member in range(64)
    ]
    result = benchmark.pedantic(
        batch_probabilities_with_insertions,
        args=(gates, circuit.num_qubits, insertions),
        iterations=1, rounds=3, warmup_rounds=1,
    )
    assert result.shape == (64, 2 ** circuit.num_qubits)
    benchmark.extra_info["batch"] = 64


def test_pooled_sharding_matches_serial(scale, noise):
    """4-shard pooled sampling is bit-identical to the serial run."""
    spec = _spec(scale, noise, shots=4000)
    serial_start = time.perf_counter()
    serial = run_sampled_job(spec, shards=1,
                             engine=ExecutionEngine(workers=1))
    serial_s = time.perf_counter() - serial_start
    pooled_start = time.perf_counter()
    pooled = run_sampled_job(spec, shards=4,
                             engine=ExecutionEngine(workers=4))
    pooled_s = time.perf_counter() - pooled_start
    assert pooled.shot == serial.shot
    # informational only: pool startup dominates at small shot counts
    print(f"serial {4000 / serial_s:.0f} shots/s, "
          f"pooled {4000 / pooled_s:.0f} shots/s")


def test_resampling_is_cache_served(scale, noise):
    """Re-running the same seeded job is free (content-hash cache)."""
    spec = _spec(scale, noise, shots=2000)
    engine = ExecutionEngine(workers=1)
    cold = run_sampled_job(spec, shards=2, engine=engine)
    engine.stats.reset()
    warm = run_sampled_job(spec, shards=2, engine=engine)
    assert warm.shot == cold.shot
    assert engine.stats.cache_hits == 2
    assert engine.stats.jobs_executed == 0
