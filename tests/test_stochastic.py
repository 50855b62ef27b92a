"""Tests for the stochastic (shot-based Monte-Carlo) noise subsystem."""

import dataclasses

import pytest

from repro.analysis.convergence import convergence_study, sampled_figure8
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exceptions import ReproError, SimulationError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    run_sampled_job,
    shard_sampling_spec,
    spec_key,
)
from repro.exec.engine import reset_default_engine
from repro.noise.channels import (
    PAULI_LABELS_2Q,
    ErrorSite,
    error_site_for_gate,
    pauli_gates,
)
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.stochastic import (
    ShotRecord,
    ShotResult,
    merge_shot_results,
    wilson_interval,
)
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


@pytest.fixture(scope="module")
def bv16_compiled():
    device = TiltDevice(num_qubits=16, head_size=8)
    compiled = LinQCompiler(
        device, CompilerConfig(mapper="trivial")
    ).compile(bv_workload(16))
    return device, compiled


@pytest.fixture(scope="module")
def qft16_compiled():
    device = TiltDevice(num_qubits=16, head_size=8)
    compiled = LinQCompiler(device, CompilerConfig()).compile(qft_workload(16))
    return device, compiled


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(73, 100)
        assert low < 0.73 < high

    def test_bounds_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_zero_successes_interval_is_informative(self):
        low, high = wilson_interval(0, 10000)
        assert low == 0.0
        assert 0.0 < high < 1e-3  # ~3.8e-4: tiny rates stay inside

    def test_tightens_with_shots(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(50, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(5, 4)


# ----------------------------------------------------------------------
# Channel vocabulary
# ----------------------------------------------------------------------
class TestChannels:
    def test_barrier_and_perfect_gates_have_no_site(self):
        from repro.circuits.gate import Gate

        assert error_site_for_gate(0, Gate("barrier", (0, 1)), 0.5) is None
        assert error_site_for_gate(0, Gate("h", (0,)), 1.0) is None

    def test_kinds(self):
        from repro.circuits.gate import Gate

        assert error_site_for_gate(0, Gate("h", (0,)), 0.9).kind == "pauli1"
        assert error_site_for_gate(
            0, Gate("xx", (0, 1), (0.5,)), 0.9
        ).kind == "pauli2"
        assert error_site_for_gate(
            0, Gate("measure", (3,)), 0.9
        ).kind == "measure_flip"

    def test_two_qubit_labels_cover_15_paulis(self):
        assert len(PAULI_LABELS_2Q) == 15
        assert "II" not in PAULI_LABELS_2Q

    def test_pauli_gates_skip_identity_factors(self):
        site = ErrorSite(index=0, kind="pauli2", qubits=(4, 7),
                         probability=0.1)
        gates = pauli_gates(site, "IX")
        assert [(g.name, g.qubits) for g in gates] == [("x", (7,))]


# ----------------------------------------------------------------------
# ShotResult container
# ----------------------------------------------------------------------
def _shot_result(shots=4, successes=3, offset=0, **overrides):
    fields = dict(
        architecture="TILT head 8",
        circuit_name="bv",
        shots=shots,
        seed=1,
        shot_offset=offset,
        successes=successes,
        errors_per_shot=tuple(
            0 if index < successes else 1 for index in range(shots)
        ),
        records=(ShotRecord(shot=offset + shots - 1, errors=((0, "X"),)),),
        num_error_sites=5,
        expected_success_rate=0.75,
    )
    fields.update(overrides)
    return ShotResult(**fields)


class TestShotResult:
    def test_success_rate_and_interval(self):
        result = _shot_result(shots=100, successes=80)
        assert result.success_rate == 0.8
        low, high = result.confidence_interval
        assert low < 0.8 < high

    def test_validation(self):
        with pytest.raises(SimulationError):
            _shot_result(shots=0, successes=0)
        with pytest.raises(SimulationError):
            _shot_result(shots=4, successes=5)
        with pytest.raises(SimulationError):
            _shot_result(errors_per_shot=(0,))

    def test_to_simulation_result_carries_interval(self):
        simulation = _shot_result(shots=100, successes=80).to_simulation_result()
        assert simulation.success_rate == 0.8
        assert simulation.extras["sampled"] == 1.0
        assert simulation.extras["ci_low"] < 0.8 < simulation.extras["ci_high"]

    def test_merge_is_order_insensitive_and_contiguous(self):
        first = _shot_result(shots=4, successes=3, offset=0)
        second = _shot_result(shots=6, successes=5, offset=4)
        merged = merge_shot_results([second, first])
        assert merged.shots == 10
        assert merged.successes == 8
        assert merged.errors_per_shot == (
            first.errors_per_shot + second.errors_per_shot
        )
        assert len(merged.records) == 2

    def test_merge_rejects_gaps_and_mismatches(self):
        first = _shot_result(offset=0)
        with pytest.raises(SimulationError):
            merge_shot_results([first, _shot_result(offset=5)])
        with pytest.raises(SimulationError):
            merge_shot_results([first, _shot_result(offset=4, seed=2)])
        with pytest.raises(SimulationError):
            merge_shot_results([])


# ----------------------------------------------------------------------
# Sampler determinism and sharding
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_is_bit_identical(self, bv16_compiled, noise):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        first = simulator.run_stochastic(compiled, shots=500, seed=9)
        second = simulator.run_stochastic(compiled, shots=500, seed=9)
        assert first == second

    def test_different_seeds_differ(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        first = simulator.run_stochastic(compiled, shots=500, seed=9)
        second = simulator.run_stochastic(compiled, shots=500, seed=10)
        assert first.errors_per_shot != second.errors_per_shot

    def test_shards_merge_bit_identically(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=600, seed=4)
        shards = [
            simulator.run_stochastic(compiled, shots=width, seed=4,
                                     shot_offset=offset)
            for offset, width in ((0, 100), (100, 350), (450, 150))
        ]
        assert merge_shot_results(shards) == serial

    @pytest.mark.parametrize("scenario", ["baseline", "crosstalk",
                                          "leakage", "heating_burst",
                                          "worst_case"])
    def test_every_scenario_shards_bit_identically(self, scenario,
                                                   qft16_compiled, noise):
        # scenario determinism: for each registered scenario, a seeded
        # run is bit-identical no matter how the shots are sharded
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=400, seed=4,
                                          scenario=scenario)
        shards = [
            simulator.run_stochastic(compiled, shots=width, seed=4,
                                     shot_offset=offset, scenario=scenario)
            for offset, width in ((0, 150), (150, 150), (300, 100))
        ]
        assert merge_shot_results(shards) == serial

    @pytest.mark.parametrize("scenario", ["baseline", "worst_case"])
    def test_scenario_worker_count_invariance(self, scenario):
        spec = _sampled_spec(shots=400, scenario=scenario)
        serial = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=1))
        pooled = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=4))
        assert serial.shot == pooled.shot

    def test_shards_merge_identically_past_the_record_cap(
            self, qft16_compiled, noise):
        # QFT-16 has ~25% erroneous shots, so a cap of 8 saturates in
        # every shard; the merge must still equal one serial pass
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=400, seed=4,
                                          max_records=8)
        shards = [
            simulator.run_stochastic(compiled, shots=200, seed=4,
                                     shot_offset=offset, max_records=8)
            for offset in (0, 200)
        ]
        assert sum(len(shard.records) for shard in shards) > 8
        assert merge_shot_results(shards) == serial
        with pytest.raises(SimulationError):
            merge_shot_results([
                shards[0],
                dataclasses.replace(shards[1], max_records=9),
            ])


# ----------------------------------------------------------------------
# Convergence to the analytic model (the acceptance criterion)
# ----------------------------------------------------------------------
class TestConvergence:
    def test_bv16_tilt_agrees_within_ci_at_10k_shots(self, bv16_compiled,
                                                     noise):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        analytic = simulator.run(compiled)
        shot = simulator.run_stochastic(compiled, shots=10_000, seed=2021)
        assert shot.agrees_with_analytic(analytic.success_rate)
        # the two estimates are genuinely close, not just inside a wide CI
        assert abs(shot.success_rate - analytic.success_rate) < 0.01

    def test_qft16_tilt_agrees_within_ci_at_10k_shots(self, qft16_compiled,
                                                      noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        analytic = simulator.run(compiled)
        shot = simulator.run_stochastic(compiled, shots=10_000, seed=2021)
        assert shot.agrees_with_analytic(analytic.success_rate)
        assert shot.expected_success_rate == pytest.approx(
            analytic.success_rate, rel=1e-9
        )

    def test_qccd_sampled_agrees(self, noise):
        device = QccdDevice(num_qubits=16, trap_capacity=5)
        program = QccdCompiler(device).compile(bv_workload(16))
        simulator = QccdSimulator(device, noise)
        analytic = simulator.run(program, circuit_name="bv")
        shot = simulator.run_stochastic(program, shots=5000, seed=2021,
                                        circuit_name="bv")
        assert shot.architecture == "QCCD"
        assert shot.agrees_with_analytic(analytic.success_rate)

    def test_ideal_sampled_agrees(self, noise):
        device = IdealTrappedIonDevice(num_qubits=16)
        simulator = IdealSimulator(device, noise)
        circuit = bv_workload(16)
        analytic = simulator.run(circuit)
        shot = simulator.run_stochastic(circuit, shots=5000, seed=2021)
        assert shot.architecture == "Ideal TI"
        assert shot.agrees_with_analytic(analytic.success_rate)


# ----------------------------------------------------------------------
# Counts sampling
# ----------------------------------------------------------------------
class TestCounts:
    def test_noiseless_bell_counts(self, noiseless):
        device = IdealTrappedIonDevice(num_qubits=2)
        bell = Circuit(2, name="bell")
        bell.h(0)
        bell.cx(0, 1)
        result = IdealSimulator(device, noiseless).run_stochastic(
            bell, shots=400, seed=5, sample_counts=True
        )
        assert result.successes == 400
        assert set(result.counts) <= {"00", "11"}
        assert sum(result.counts.values()) == 400
        # an unbiased Bell pair: both outcomes show up
        assert len(result.counts) == 2

    def test_measurement_flips_move_counts(self, noiseless):
        params = noiseless.with_overrides(measurement_error=0.5)
        device = IdealTrappedIonDevice(num_qubits=2)
        circuit = Circuit(2, name="flips")
        circuit.measure_all()  # state stays |00>, readout is noisy
        result = IdealSimulator(device, params).run_stochastic(
            circuit, shots=600, seed=5, sample_counts=True
        )
        assert result.successes < 600
        assert any(outcome != "00" for outcome in result.counts)
        flipped = sum(count for outcome, count in result.counts.items()
                      if outcome != "00")
        assert flipped == 600 - result.successes

    def test_counts_need_the_gate_sequence(self):
        from repro.sim.stochastic import StochasticSampler

        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    sites=[])
        with pytest.raises(SimulationError):
            sampler.run(10, sample_counts=True)

    def test_tilt_counts_are_in_logical_qubit_order(self, noiseless,
                                                    bv16_compiled):
        from repro.sim.statevector import StatevectorSimulator

        device, compiled = bv16_compiled
        result = TiltSimulator(device, noiseless).run_stochastic(
            compiled, shots=50, seed=1, sample_counts=True
        )
        # noiseless sampling must land on outcomes the *logical* circuit
        # can produce (BV leaves its ancilla in superposition, so there
        # are two); the routed/physical bit order would have zero
        # probability here because routing SWAPs permute the wires
        probabilities = StatevectorSimulator().probabilities(bv_workload(16))
        assert sum(result.counts.values()) == 50
        for outcome in result.counts:
            assert probabilities[int(outcome, 2)] > 1e-9

    def test_bare_program_counts_stay_physical(self, noiseless,
                                               bv16_compiled):
        from repro.sim.statevector import StatevectorSimulator

        device, compiled = bv16_compiled
        result = TiltSimulator(device, noiseless).run_stochastic(
            compiled.program, shots=20, seed=1, sample_counts=True
        )
        probabilities = StatevectorSimulator().probabilities(
            compiled.routed_circuit
        )
        for outcome in result.counts:
            assert probabilities[int(outcome, 2)] > 1e-9

    def test_counts_reproducible_across_sharding(self, noise, bv16_compiled):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=200, seed=6,
                                          sample_counts=True)
        shards = [
            simulator.run_stochastic(compiled, shots=100, seed=6,
                                     shot_offset=offset, sample_counts=True)
            for offset in (0, 100)
        ]
        assert merge_shot_results(shards).counts == serial.counts


# ----------------------------------------------------------------------
# Vectorized sampling vs the exhaustive per-shot reference
# ----------------------------------------------------------------------
class TestVectorizedReference:
    """The vectorized kernels are pinned bit-identical to
    ``exhaustive_shots=True`` — the same draw discipline executed with one
    real generator per shot — across backends, modes and shard splits."""

    def test_tilt_success_sampling_bit_identity(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        vectorized = simulator.run_stochastic(compiled, shots=400, seed=7)
        reference = simulator.run_stochastic(compiled, shots=400, seed=7,
                                             exhaustive_shots=True)
        assert vectorized == reference

    def test_exhaustive_shards_merge_into_the_vectorized_serial_run(
            self, qft16_compiled, noise):
        # offsets must not shift either discipline's stream: reference
        # shards reassemble the vectorized whole bit for bit
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        vectorized = simulator.run_stochastic(compiled, shots=300, seed=11)
        shards = [
            simulator.run_stochastic(compiled, shots=width, seed=11,
                                     shot_offset=offset,
                                     exhaustive_shots=True)
            for offset, width in ((0, 120), (120, 80), (200, 100))
        ]
        assert merge_shot_results(shards) == vectorized

    def test_tilt_counts_bit_identity(self, noise):
        device = TiltDevice(num_qubits=8, head_size=4)
        compiled = LinQCompiler(device, CompilerConfig()).compile(
            qft_workload(8)
        )
        simulator = TiltSimulator(device, noise)
        vectorized = simulator.run_stochastic(compiled, shots=150, seed=3,
                                              sample_counts=True)
        reference = simulator.run_stochastic(compiled, shots=150, seed=3,
                                             sample_counts=True,
                                             exhaustive_shots=True)
        assert vectorized == reference
        assert vectorized.counts is not None

    def test_scenario_counts_bit_identity(self, noise):
        # worst_case routes through the correlated column-wise kernels
        # (bursts, leakage suppression, crosstalk) and the leak coin flips
        device = TiltDevice(num_qubits=8, head_size=4)
        compiled = LinQCompiler(device, CompilerConfig()).compile(
            qft_workload(8)
        )
        simulator = TiltSimulator(device, noise)
        vectorized = simulator.run_stochastic(compiled, shots=100, seed=5,
                                              sample_counts=True,
                                              scenario="worst_case")
        reference = simulator.run_stochastic(compiled, shots=100, seed=5,
                                             sample_counts=True,
                                             scenario="worst_case",
                                             exhaustive_shots=True)
        assert vectorized == reference

    def test_ideal_backend_bit_identity(self, noise):
        device = IdealTrappedIonDevice(num_qubits=6)
        simulator = IdealSimulator(device, noise)
        circuit = bv_workload(6)
        vectorized = simulator.run_stochastic(circuit, shots=200, seed=9,
                                              sample_counts=True)
        reference = simulator.run_stochastic(circuit, shots=200, seed=9,
                                             sample_counts=True,
                                             exhaustive_shots=True)
        assert vectorized == reference

    def test_qccd_backend_bit_identity(self, noise):
        device = QccdDevice(num_qubits=8, trap_capacity=4)
        program = QccdCompiler(device).compile(qft_workload(8))
        simulator = QccdSimulator(device, noise)
        vectorized = simulator.run_stochastic(program, shots=150, seed=13,
                                              circuit_name="qft")
        reference = simulator.run_stochastic(program, shots=150, seed=13,
                                             circuit_name="qft",
                                             exhaustive_shots=True)
        assert vectorized == reference


# ----------------------------------------------------------------------
# Pattern grouping and the memoised ideal distribution
# ----------------------------------------------------------------------
class TestCountsResimulationEconomy:
    def test_resimulation_runs_once_per_distinct_pattern(self):
        from repro.circuits.gate import Gate
        from repro.sim.stochastic import StochasticSampler

        # one fallible Pauli site -> at most 3 distinct error patterns
        # (X, Y or Z after gate 0), however many shots trigger it
        gates = [Gate("h", (0,)), Gate("cx", (0, 1))]
        sampler = StochasticSampler(
            architecture="x", circuit_name="bell",
            sites=[ErrorSite(index=0, kind="pauli1", qubits=(0,),
                             probability=0.5)],
            gates=gates, num_qubits=2,
        )
        result = sampler.run(200, seed=3, sample_counts=True)
        stats = sampler.last_stats
        assert stats["mode"] == "vectorized"
        assert stats["resimulations"] == stats["distinct_patterns"]
        assert stats["distinct_patterns"] <= 3
        assert stats["replayed_shots"] > stats["distinct_patterns"]
        # the reference path re-simulates every erroneous shot anew and
        # still produces the identical result
        reference = sampler.run(200, seed=3, sample_counts=True,
                                exhaustive_shots=True)
        assert reference == result
        assert (sampler.last_stats["resimulations"]
                > stats["resimulations"])

    def test_ideal_distribution_computed_once_across_shards(
            self, monkeypatch, noiseless):
        from repro.sim.statevector import StatevectorSimulator
        from repro.sim.stochastic import _ideal_cumulative

        # regression: the ideal outcome distribution used to be
        # recomputed by every shard of a counts run; it is memoised on
        # the executed gate sequence now, so a 3-shard fan-out performs
        # exactly one statevector pass
        _ideal_cumulative.cache_clear()
        calls: list[str] = []
        original = StatevectorSimulator.probabilities

        def counting(self, circuit):
            calls.append(circuit.name or "")
            return original(self, circuit)

        monkeypatch.setattr(StatevectorSimulator, "probabilities", counting)
        device = IdealTrappedIonDevice(num_qubits=4)
        simulator = IdealSimulator(device, noiseless)
        circuit = qft_workload(4)
        shards = [
            simulator.run_stochastic(circuit, shots=50, seed=2,
                                     shot_offset=offset, sample_counts=True)
            for offset in (0, 50, 100)
        ]
        merged = merge_shot_results(shards)
        assert merged.shots == 150
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def _sampled_spec(shots=300, seed=3, **overrides):
    fields = dict(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(mapper="trivial"),
        noise=NoiseParameters.paper_defaults(),
        shots=shots,
        seed=seed,
        label="bv-sampled",
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestEngineIntegration:
    def test_sampling_dimension_is_hashed(self):
        base = _sampled_spec()
        assert spec_key(base) == spec_key(_sampled_spec())
        assert spec_key(base) != spec_key(_sampled_spec(shots=301))
        assert spec_key(base) != spec_key(_sampled_spec(seed=4))
        assert spec_key(base) != spec_key(
            dataclasses.replace(base, shot_offset=10)
        )
        analytic = dataclasses.replace(base, shots=0, shot_offset=0, seed=0)
        assert spec_key(base) != spec_key(analytic)

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            _sampled_spec(shots=-1)
        with pytest.raises(ReproError):
            _sampled_spec(seed=-1)
        with pytest.raises(ReproError):
            dataclasses.replace(_sampled_spec(), shots=0, shot_offset=5)
        with pytest.raises(ReproError):
            _sampled_spec(simulate=False)

    def test_execute_carries_shot_result(self):
        result = ExecutionEngine(workers=1).run_one(_sampled_spec())
        assert result.shot is not None
        assert result.shot.shots == 300
        assert result.simulation is not None
        assert result.shot.analytic == result.simulation

    def test_worker_count_invariance(self):
        spec = _sampled_spec(shots=600)
        serial = run_sampled_job(spec, shards=3,
                                 engine=ExecutionEngine(workers=1))
        pooled = run_sampled_job(spec, shards=3,
                                 engine=ExecutionEngine(workers=3))
        assert serial.shot == pooled.shot

    def test_sharding_invariance(self):
        spec = _sampled_spec(shots=500)
        one = run_sampled_job(spec, shards=1,
                              engine=ExecutionEngine(workers=1))
        many = run_sampled_job(spec, shards=4,
                               engine=ExecutionEngine(workers=1))
        assert one.shot == many.shot
        assert one.key == many.key == spec_key(spec)

    def test_shard_split_covers_all_shots(self):
        shards = shard_sampling_spec(_sampled_spec(shots=10), 3)
        assert [s.shots for s in shards] == [4, 3, 3]
        assert [s.shot_offset for s in shards] == [0, 4, 7]
        with pytest.raises(ReproError):
            shard_sampling_spec(_sampled_spec(shots=10), 0)
        with pytest.raises(ReproError):
            shard_sampling_spec(
                dataclasses.replace(_sampled_spec(), shots=0, seed=0), 2
            )

    def test_more_shards_than_shots_is_harmless(self):
        shards = shard_sampling_spec(_sampled_spec(shots=2), 5)
        assert [s.shots for s in shards] == [1, 1]

    def test_disk_cache_round_trips_shot_results(self, tmp_path):
        root = tmp_path / "run"
        spec = _sampled_spec()
        first = ExecutionEngine(workers=1, store=root).run_one(spec)
        warm = ExecutionEngine(workers=1, store=root)
        second = warm.run_one(spec)
        assert second.cache_hit
        assert second.shot == first.shot

    def test_qccd_backend_sampling(self):
        spec = JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", shots=200, seed=1,
        )
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.shot is not None
        assert result.shot.architecture == "QCCD"


# ----------------------------------------------------------------------
# Analysis drivers
# ----------------------------------------------------------------------
class TestAnalysis:
    def test_convergence_study_rows(self):
        rows = convergence_study(
            "small", workloads=("BV",), shot_schedule=(50, 200),
            engine=ExecutionEngine(workers=1),
        )
        assert [row.shots for row in rows] == [50, 200]
        assert all(row.workload == "BV" for row in rows)
        assert all(row.ci_low <= row.sampled_success_rate <= row.ci_high
                   for row in rows)

    def test_sampled_figure8_covers_architectures(self):
        rows = sampled_figure8(
            "small", workloads=("BV",), shots=200,
            engine=ExecutionEngine(workers=1),
        )
        architectures = {row.architecture for row in rows}
        assert any(a.startswith("TILT") for a in architectures)
        assert "Ideal TI" in architectures
        assert "QCCD" in architectures
