"""Tests for the repro.exec batch execution engine."""

import concurrent.futures
import dataclasses

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.core.comparison import compare_architectures
from repro.core.sweep import max_swap_len_sweep, mapper_sweep
from repro.exceptions import ReproError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    run_jobs,
    spec_key,
)
from repro.exec.engine import reset_default_engine, resolve_workers
from repro.noise.parameters import NoiseParameters
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    """Keep the process-wide engine out of these tests."""
    reset_default_engine()
    yield
    reset_default_engine()


def _tilt_spec(length: int = 7, *, simulate: bool = True,
               label: str = "") -> JobSpec:
    return JobSpec(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(max_swap_len=length, mapper="trivial"),
        noise=NoiseParameters.paper_defaults(),
        simulate=simulate,
        label=label,
    )


class TestSpecKey:
    def test_equal_specs_share_a_key(self):
        assert spec_key(_tilt_spec(7)) == spec_key(_tilt_spec(7))

    def test_label_is_not_hashed(self):
        assert spec_key(_tilt_spec(7, label="a")) == spec_key(
            _tilt_spec(7, label="b")
        )

    def test_config_changes_the_key(self):
        assert spec_key(_tilt_spec(7)) != spec_key(_tilt_spec(5))

    def test_circuit_changes_the_key(self):
        base = _tilt_spec(7)
        other = dataclasses.replace(base, circuit=qft_workload(16))
        assert spec_key(base) != spec_key(other)

    def test_simulate_flag_changes_the_key(self):
        assert spec_key(_tilt_spec(7)) != spec_key(
            _tilt_spec(7, simulate=False)
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            JobSpec(circuit=bv_workload(4),
                    device=TiltDevice(num_qubits=4, head_size=2),
                    backend="magic")


class TestExecutionEngine:
    def test_serial_run_matches_direct_toolflow(self, noise):
        spec = _tilt_spec(7)
        result = ExecutionEngine(workers=1).run_one(spec)
        compiled = LinQCompiler(spec.device, spec.config).compile(spec.circuit)
        direct = TiltSimulator(spec.device, noise).run(compiled)

        def structural(stats):
            # wall-clock compile timings legitimately differ run to run
            return dataclasses.replace(
                stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0,
            )

        assert structural(result.stats) == structural(compiled.stats)
        assert result.simulation == direct

    def test_repeated_batch_is_served_from_cache(self):
        engine = ExecutionEngine(workers=1)
        specs = [_tilt_spec(length) for length in (7, 6, 5)]
        first = engine.run(specs)
        assert engine.stats.cache_hits == 0
        assert engine.stats.jobs_executed == 3
        second = engine.run(specs)
        assert engine.stats.cache_hits == 3
        assert engine.stats.jobs_executed == 3  # nothing new ran
        assert all(result.cache_hit for result in second)
        assert [r.simulation for r in second] == [r.simulation for r in first]

    def test_duplicates_in_one_batch_execute_once(self):
        engine = ExecutionEngine(workers=1)
        results = engine.run([_tilt_spec(7), _tilt_spec(7), _tilt_spec(7)])
        assert engine.stats.jobs_executed == 1
        assert engine.stats.deduplicated == 2
        assert results[0].simulation == results[1].simulation
        assert not results[0].cache_hit and results[1].cache_hit

    def test_labels_survive_dedup_and_cache(self):
        engine = ExecutionEngine(workers=1)
        a, b = engine.run([_tilt_spec(7, label="a"), _tilt_spec(7, label="b")])
        assert (a.label, b.label) == ("a", "b")
        (c,) = engine.run([_tilt_spec(7, label="c")])
        assert c.label == "c" and c.cache_hit

    def test_pooled_run_matches_serial(self):
        specs = [_tilt_spec(length) for length in (7, 6, 5, 4)]
        serial = ExecutionEngine(workers=1).run(specs)
        pooled = ExecutionEngine(workers=2).run(specs)
        assert [r.stats.num_swaps for r in pooled] == [
            r.stats.num_swaps for r in serial
        ]
        assert [r.simulation for r in pooled] == [r.simulation for r in serial]

    def test_disk_cache_survives_engines(self, tmp_path):
        root = tmp_path / "run"
        spec = _tilt_spec(7)
        first = ExecutionEngine(workers=1, store=root).run_one(spec)
        warm_engine = ExecutionEngine(workers=1, store=root)
        second = warm_engine.run_one(spec)
        assert warm_engine.stats.cache_hits == 1
        assert warm_engine.stats.jobs_executed == 0
        assert second.cache_hit
        assert second.simulation == first.simulation
        assert second.stats == first.stats

    def test_oserror_inside_a_job_runs_once_and_propagates(
            self, monkeypatch):
        # regression: the engine re-ran every unfinished job serially on
        # any OSError, so a job raising one ran twice and the error
        # surfaced chained to its own first occurrence
        calls = []

        def failing_compile(compiler, circuit):
            calls.append(circuit.name)
            raise OSError("disk full while compiling")

        monkeypatch.setattr(LinQCompiler, "compile", failing_compile)
        with pytest.raises(OSError, match="disk full") as excinfo:
            ExecutionEngine(workers=1).run_one(_tilt_spec(7))
        assert len(calls) == 1
        assert excinfo.value.__context__ is None

    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch):
        def no_semaphores(*args, **kwargs):
            raise OSError(38, "Function not implemented")

        specs = [_tilt_spec(length) for length in (7, 6, 5)]
        serial = ExecutionEngine(workers=1).run(specs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_semaphores)
        engine = ExecutionEngine(workers=2, backend="process")
        pooled = engine.run(specs)
        assert engine.stats.jobs_executed == 3
        assert [r.simulation for r in pooled] == [
            r.simulation for r in serial
        ]

    def test_progress_callback_sees_every_job(self):
        seen = []
        engine = ExecutionEngine(
            workers=1, progress=lambda done, total, result: seen.append(
                (done, total)
            )
        )
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert seen == [(1, 2), (2, 2)]
        # cache-served jobs also report progress
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert seen == [(1, 2), (2, 2), (1, 2), (2, 2)]

    def test_compile_only_job_has_no_simulation(self):
        result = ExecutionEngine(workers=1).run_one(
            _tilt_spec(7, simulate=False)
        )
        assert result.stats is not None
        assert result.simulation is None

    def test_ideal_backend(self):
        spec = JobSpec(circuit=bv_workload(8),
                       device=IdealTrappedIonDevice(num_qubits=8),
                       backend="ideal")
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.stats is None
        assert result.simulation.architecture == "Ideal TI"

    def test_qccd_backend(self):
        spec = JobSpec(circuit=qft_workload(12),
                       device=QccdDevice(num_qubits=12, trap_capacity=5),
                       backend="qccd")
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.stats is None
        assert result.simulation.num_moves > 0

    def test_stats_reset_zeroes_counters_but_keeps_cache(self):
        engine = ExecutionEngine(workers=1)
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert engine.stats.jobs_executed == 2
        engine.stats.reset()
        assert engine.stats.jobs_submitted == 0
        assert engine.stats.jobs_executed == 0
        assert engine.stats.cache_hits == 0
        assert engine.stats.deduplicated == 0
        assert engine.stats.execution_time_s == 0.0
        assert engine.stats.job_times_s == []
        # per-phase accounting: the warm phase reports only its own hits
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert engine.stats.cache_hits == 2
        assert engine.stats.jobs_executed == 0

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # one per CPU
        monkeypatch.setenv("TILT_REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.delenv("TILT_REPRO_WORKERS")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("TILT_REPRO_WORKERS", "nope")
        with pytest.raises(ReproError):
            resolve_workers(None)
        with pytest.raises(ReproError):
            resolve_workers(-2)


class TestEngineRoutedDrivers:
    def test_sweep_identical_serial_and_pooled(self, tilt16):
        circuit = bv_workload(16)
        serial = max_swap_len_sweep(
            circuit, tilt16, [7, 5, 4],
            engine=ExecutionEngine(workers=1),
        )
        pooled = max_swap_len_sweep(
            circuit, tilt16, [7, 5, 4],
            engine=ExecutionEngine(workers=4),
        )
        assert pooled == serial

    def test_sweep_hits_cache_on_reinvocation(self, tilt16):
        engine = ExecutionEngine(workers=1)
        circuit = bv_workload(16)
        first = max_swap_len_sweep(circuit, tilt16, [7, 5], engine=engine)
        second = max_swap_len_sweep(circuit, tilt16, [7, 5], engine=engine)
        assert second == first
        assert engine.stats.cache_hits == 2

    def test_run_jobs_uses_shared_engine_cache(self, tilt16):
        circuit = bv_workload(16)
        first = max_swap_len_sweep(circuit, tilt16, [7])
        second = max_swap_len_sweep(circuit, tilt16, [7])
        assert second == first
        from repro.exec import default_engine

        assert default_engine().stats.cache_hits >= 1

    def test_run_jobs_workers_override_is_temporary(self):
        engine = ExecutionEngine(workers=1)
        run_jobs([_tilt_spec(7)], workers=2, engine=engine)
        assert engine.workers == 1

    def test_comparison_through_engine(self):
        comparison = compare_architectures(
            qft_workload(12), head_sizes=(4, 6), qccd_trap_capacities=(5,),
            engine=ExecutionEngine(workers=1),
        )
        assert set(comparison.architectures()) == {
            "TILT head 4", "TILT head 6", "Ideal TI", "QCCD",
        }

    def test_mapper_sweep_points_carry_labels(self, tilt16):
        points = mapper_sweep(bv_workload(16), tilt16,
                              engine=ExecutionEngine(workers=1))
        for mapper, point in points.items():
            assert point.label == mapper
            assert point.parameter == "mapper"
