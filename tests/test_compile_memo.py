"""Compile sharing inside a batch: one lowering per circuit, one
compile per (circuit, device, config) and one shot sampler per (program,
noise, scenario), with results unchanged."""

import dataclasses

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler import pipeline
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.core.comparison import comparison_specs
from repro.exceptions import ReproError
from repro.exec import ExecutionEngine, JobSpec, spec_key
from repro.exec.backends import execute_spec
from repro.exec.sampling import shard_sampling_spec
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


@pytest.fixture
def counts(monkeypatch):
    """Count lowerings, compiles and sampler builds in this process.

    Every lowering calls ``decompose_to_native`` through
    :mod:`repro.compiler.pipeline`, so wrapping it there sees all of
    them, whichever toolchain asked.  Every sampler comes from one of
    the three simulators' ``build_sampler``.
    """
    seen = {"lowerings": 0, "linq": 0, "qccd": 0, "samplers": 0}
    decompose = pipeline.decompose_to_native
    linq_compile = LinQCompiler.compile
    qccd_compile = QccdCompiler.compile

    def counting_decompose(circuit, **kwargs):
        seen["lowerings"] += 1
        return decompose(circuit, **kwargs)

    def counting_linq(self, *args, **kwargs):
        seen["linq"] += 1
        return linq_compile(self, *args, **kwargs)

    def counting_qccd(self, *args, **kwargs):
        seen["qccd"] += 1
        return qccd_compile(self, *args, **kwargs)

    def counting_sampler(build_sampler):
        def counting(self, *args, **kwargs):
            seen["samplers"] += 1
            return build_sampler(self, *args, **kwargs)
        return counting

    monkeypatch.setattr(pipeline, "decompose_to_native", counting_decompose)
    monkeypatch.setattr(LinQCompiler, "compile", counting_linq)
    monkeypatch.setattr(QccdCompiler, "compile", counting_qccd)
    for simulator in (TiltSimulator, IdealSimulator, QccdSimulator):
        monkeypatch.setattr(simulator, "build_sampler",
                            counting_sampler(simulator.build_sampler))
    return seen


def _structural(result):
    """A result without its wall-clock timings."""
    stats = result.stats
    if stats is not None:
        stats = dataclasses.replace(
            stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0,
        )
    return (result.key, result.label, stats, result.simulation, result.shot)


def _tilt(circuit, *, config=None, noise=None, **fields) -> JobSpec:
    return JobSpec(circuit=circuit,
                   device=TiltDevice(num_qubits=circuit.num_qubits,
                                     head_size=circuit.num_qubits // 2),
                   config=config, noise=noise, **fields)


class TestCompileSharing:
    def test_sampled_shards_and_scenarios_compile_once(self, counts):
        spec = _tilt(qft_workload(8), config=CompilerConfig(),
                     noise=NoiseParameters.paper_defaults(),
                     shots=256, seed=5)
        specs = [
            shard
            for scenario in ("baseline", "crosstalk")
            for shard in shard_sampling_spec(
                dataclasses.replace(spec, scenario=scenario), 4)
        ]
        assert len(specs) == 8
        shared = ExecutionEngine(workers=1).run(specs)
        assert counts == {"lowerings": 1, "linq": 1, "qccd": 0,
                          "samplers": 2}
        fresh = [ExecutionEngine(workers=1).run_one(s) for s in specs]
        assert ([_structural(r) for r in shared]
                == [_structural(r) for r in fresh])

    def test_interleaved_noise_shards_build_one_sampler_per_noise(
            self, counts):
        # a one-slot memo fed in batch order would rebuild at every job
        quiet = NoiseParameters.paper_defaults()
        noisy = quiet.with_overrides(residual_gate_error=1e-3)
        spec = _tilt(qft_workload(8), shots=128, seed=3)
        shards = {noise: shard_sampling_spec(
            dataclasses.replace(spec, noise=noise), 2)
            for noise in (quiet, noisy)}
        specs = [shards[noise][index] for index in (0, 1)
                 for noise in (quiet, noisy)]
        shared = ExecutionEngine(workers=1).run(specs)
        assert counts == {"lowerings": 1, "linq": 1, "qccd": 0,
                          "samplers": 2}
        assert shared[0].shot != shared[1].shot
        fresh = [ExecutionEngine(workers=1).run_one(s) for s in specs]
        assert ([_structural(r) for r in shared]
                == [_structural(r) for r in fresh])

    def test_comparison_batch_lowers_once(self, counts):
        specs = comparison_specs(qft_workload(12), head_sizes=(4, 6),
                                 qccd_trap_capacities=(3, 4, 5))
        assert [s.backend for s in specs] == [
            "tilt", "tilt", "ideal", "qccd", "qccd", "qccd"]
        ExecutionEngine(workers=1).run(specs)
        assert counts == {"lowerings": 1, "linq": 2, "qccd": 3,
                          "samplers": 0}

    def test_interleaved_circuits_lower_once_each(self, counts):
        a, b = bv_workload(8), qft_workload(8)
        ideal = IdealTrappedIonDevice(num_qubits=8)
        qccd = QccdDevice(num_qubits=8, trap_capacity=3)
        engine = ExecutionEngine(workers=1)
        warm = JobSpec(circuit=b, device=qccd, backend="qccd", label="warm")
        engine.run_one(warm)
        counts.update(lowerings=0, linq=0, qccd=0, samplers=0)

        wide, narrow = (CompilerConfig(max_swap_len=n) for n in (3, 2))
        specs = [
            _tilt(a, config=wide, label="a-wide"),
            _tilt(b, config=wide, label="b-wide"),
            JobSpec(circuit=a, device=ideal, backend="ideal", label="a-ideal"),
            dataclasses.replace(warm, label="b-cached"),
            _tilt(a, config=wide, label="a-wide-again"),
            _tilt(a, config=narrow, label="a-narrow"),
            _tilt(b, config=narrow, label="b-narrow"),
            JobSpec(circuit=b, device=ideal, backend="ideal", label="b-ideal"),
        ]
        results = engine.run(specs)
        assert counts == {"lowerings": 2, "linq": 4, "qccd": 0,
                          "samplers": 0}
        assert [r.key for r in results] == [spec_key(s) for s in specs]
        assert [r.label for r in results] == [s.label for s in specs]
        assert [r.cache_hit for r in results] == [
            False, False, False, True, True, False, False, False]
        assert results[4].simulation == results[0].simulation
        assert [r.simulation.circuit_name for r in results] == [
            s.circuit.name for s in specs]

    def test_default_config_spellings_compile_once(self, counts):
        circuit = bv_workload(16)
        implicit = _tilt(circuit, config=None)
        explicit = _tilt(circuit, config=CompilerConfig())
        assert spec_key(implicit) == spec_key(explicit)
        first, second = ExecutionEngine(workers=1).run([implicit, explicit])
        assert counts == {"lowerings": 1, "linq": 1, "qccd": 0,
                          "samplers": 0}
        assert second.cache_hit  # an in-batch duplicate
        assert _structural(first)[2:] == _structural(second)[2:]

    def test_equal_circuits_with_other_names_do_not_share(self, counts):
        circuit = bv_workload(8)
        renamed = bv_workload(8)
        renamed.name = "renamed"
        first, second = ExecutionEngine(workers=1).run(
            [_tilt(circuit), _tilt(renamed)])
        assert counts["linq"] == 2
        assert second.simulation.circuit_name == "renamed"
        assert first.simulation.circuit_name == circuit.name

    def test_lowering_passed_in_skips_decomposition(self, tilt16):
        circuit = qft_workload(16)
        compiler = LinQCompiler(tilt16)
        own = compiler.compile(circuit)
        given = compiler.compile(circuit,
                                 native=pipeline.lower_to_native(circuit))
        assert given.stats.time_decompose_s == 0.0
        assert given.native_circuit == own.native_circuit
        assert dataclasses.replace(given.stats, time_swap_s=0,
                                   time_schedule_s=0) == dataclasses.replace(
            own.stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0)


class _DroppingBackend:
    """Yields every job's result except the first one it is handed."""

    name = "dropping"

    def __init__(self) -> None:
        self.dropped: str | None = None

    def submit(self, jobs):
        (self.dropped, _), *rest = jobs
        for key, spec in rest:
            yield key, execute_spec(spec, key)

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return self.name

    def describe_config(self) -> dict:
        return {"backend": self.name}


class _ForeignKeyBackend(_DroppingBackend):
    """Returns each result under a key the batch never submitted."""

    def submit(self, jobs):
        for key, spec in jobs:
            yield "not-" + key, execute_spec(spec, key)


class TestIncompleteBatches:
    def test_missing_result_raises_with_its_key(self):
        specs = [_tilt(bv_workload(8), config=CompilerConfig(max_swap_len=n))
                 for n in (3, 2)]
        backend = _DroppingBackend()
        with pytest.raises(ReproError, match="no result") as excinfo:
            ExecutionEngine(workers=1, backend=backend).run(specs)
        assert backend.dropped in str(excinfo.value)

    def test_result_for_an_unsubmitted_key_raises(self):
        with pytest.raises(ReproError, match="did not submit"):
            ExecutionEngine(workers=1, backend=_ForeignKeyBackend()).run(
                [_tilt(bv_workload(8))])
