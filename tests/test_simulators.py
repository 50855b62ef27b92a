"""Tests for the noisy architectural simulators (TILT and Ideal TI) and
the front door they share with QCCD."""

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig, compile_for_tilt
from repro.compiler.qccd_compiler import compile_for_qccd
from repro.exceptions import SimulationError
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qaoa import qaoa_workload
from repro.workloads.qft import qft_workload


class TestTiltSimulator:
    def test_noiseless_program_has_unit_success(self, tilt16, noiseless):
        compiled = compile_for_tilt(bv_workload(16), tilt16)
        result = TiltSimulator(tilt16, noiseless).run(compiled)
        assert result.success_rate == pytest.approx(1.0)
        assert result.execution_time_us > 0

    def test_accepts_program_or_compile_result(self, tilt16, noise):
        compiled = compile_for_tilt(bv_workload(16), tilt16)
        simulator = TiltSimulator(tilt16, noise)
        from_result = simulator.run(compiled)
        from_program = simulator.run(compiled.program, circuit_name="bv")
        assert from_result.success_rate == pytest.approx(from_program.success_rate)

    def test_metadata_matches_compilation(self, tilt16, noise):
        compiled = compile_for_tilt(qft_workload(16), tilt16)
        result = TiltSimulator(tilt16, noise).run(compiled)
        assert result.num_moves == compiled.stats.num_moves
        assert result.move_distance_um == pytest.approx(
            compiled.stats.move_distance_um
        )
        assert result.architecture == "TILT head 8"
        assert 0.0 <= result.success_rate <= 1.0

    def test_more_heating_lowers_success(self, tilt16):
        compiled = compile_for_tilt(qft_workload(16), tilt16)
        cold = TiltSimulator(
            tilt16, NoiseParameters(shuttle_quanta_reference=0.0)
        ).run(compiled)
        hot = TiltSimulator(
            tilt16, NoiseParameters(shuttle_quanta_reference=5.0)
        ).run(compiled)
        assert hot.log10_success_rate < cold.log10_success_rate

    def test_execution_time_includes_tape_travel(self, tilt16, noise):
        compiled = compile_for_tilt(qft_workload(16), tilt16)
        slow = TiltSimulator(
            tilt16, noise.with_overrides(shuttle_speed_um_per_us=0.1)
        ).run(compiled)
        fast = TiltSimulator(
            tilt16, noise.with_overrides(shuttle_speed_um_per_us=10.0)
        ).run(compiled)
        assert slow.execution_time_us > fast.execution_time_us

    def test_chain_length_mismatch_rejected(self, tilt16, noise):
        other_device = TiltDevice(num_qubits=12, head_size=6)
        compiled = compile_for_tilt(bv_workload(12), other_device)
        with pytest.raises(SimulationError):
            TiltSimulator(tilt16, noise).run(compiled)

    @pytest.mark.parametrize("scenario", [None, "crosstalk"])
    def test_head_size_mismatch_rejected(self, noise, scenario):
        """A head-4 schedule on a head-8 simulator of the same chain: the
        chain lengths agree, so only the whole device tells them apart."""
        compiled = compile_for_tilt(
            qft_workload(16), TiltDevice(num_qubits=16, head_size=4))
        simulator = TiltSimulator(TiltDevice(num_qubits=16, head_size=8),
                                  noise)
        with pytest.raises(SimulationError, match="head_size=4"):
            simulator.run(compiled, scenario=scenario)
        with pytest.raises(SimulationError, match="head_size=4"):
            simulator.build_sampler(compiled, scenario=scenario)

    def test_success_ratio_helper(self, tilt16, noise):
        compiled = compile_for_tilt(qft_workload(16), tilt16)
        result = TiltSimulator(tilt16, noise).run(compiled)
        assert result.success_ratio_over(result) == pytest.approx(1.0)
        assert "TILT" in result.summary()

    def test_success_ratio_over_zero_denominator_raises(self, tilt16, noise):
        import dataclasses

        compiled = compile_for_tilt(qft_workload(16), tilt16)
        result = TiltSimulator(tilt16, noise).run(compiled)
        dead = dataclasses.replace(
            result, success_rate=0.0, log10_success_rate=float("-inf")
        )
        with pytest.raises(SimulationError):
            result.success_ratio_over(dead)
        with pytest.raises(SimulationError):
            dead.success_ratio_over(dead)
        # a zero numerator over a live denominator is fine (ratio 0)
        assert dead.success_ratio_over(result) == 0.0

    def test_success_ratio_over_extreme_gap_saturates(self, tilt16, noise):
        import dataclasses

        compiled = compile_for_tilt(qft_workload(16), tilt16)
        result = TiltSimulator(tilt16, noise).run(compiled)
        tiny = dataclasses.replace(result, log10_success_rate=-400.0)
        assert result.success_ratio_over(tiny) == float("inf")


class TestIdealSimulator:
    def test_noiseless_success_is_one(self, ideal16, noiseless):
        result = IdealSimulator(ideal16, noiseless).run(bv_workload(16))
        assert result.success_rate == pytest.approx(1.0)

    def test_no_moves_ever(self, ideal16, noise):
        result = IdealSimulator(ideal16, noise).run(qft_workload(16))
        assert result.num_moves == 0
        assert result.move_distance_um == 0.0

    def test_ideal_beats_tilt_on_routed_workloads(self, tilt16, ideal16, noise):
        circuit = qft_workload(16)
        tilt_result = TiltSimulator(tilt16, noise).run(
            compile_for_tilt(circuit, tilt16)
        )
        ideal_result = IdealSimulator(ideal16, noise).run(circuit)
        assert ideal_result.log10_success_rate > tilt_result.log10_success_rate

    def test_too_wide_circuit_rejected(self, noise):
        device = IdealTrappedIonDevice(num_qubits=8)
        with pytest.raises(SimulationError):
            IdealSimulator(device, noise).run(bv_workload(16))

    def test_precomputed_native_circuit(self, ideal16, noise):
        from repro.compiler.pipeline import lower_to_native

        circuit = qaoa_workload(16, rounds=1)
        native = lower_to_native(circuit)
        direct = IdealSimulator(ideal16, noise).run(circuit, native=native)
        recompiled = IdealSimulator(ideal16, noise).run(qaoa_workload(16, rounds=1))
        assert direct.log10_success_rate == pytest.approx(
            recompiled.log10_success_rate, rel=1e-6
        )
        assert direct == recompiled
        sampled = IdealSimulator(ideal16, noise).run_stochastic(
            circuit, native=native, shots=64, seed=3)
        assert sampled == IdealSimulator(ideal16, noise).run_stochastic(
            circuit, shots=64, seed=3)


class TestCrossArchitectureShape:
    def test_larger_head_never_hurts(self, noise):
        circuit = qft_workload(16)
        results = {}
        for head in (4, 8):
            device = TiltDevice(num_qubits=16, head_size=head)
            compiled = compile_for_tilt(circuit, device)
            results[head] = TiltSimulator(device, noise).run(compiled)
        assert results[8].log10_success_rate >= results[4].log10_success_rate

    def test_linq_router_beats_baseline_router(self, tilt16, noise):
        circuit = qft_workload(16)
        linq = compile_for_tilt(circuit, tilt16,
                                CompilerConfig(mapper="trivial"))
        baseline = compile_for_tilt(
            circuit, tilt16, CompilerConfig(mapper="trivial", router="baseline")
        )
        simulator = TiltSimulator(tilt16, noise)
        assert (simulator.run(linq).log10_success_rate
                >= simulator.run(baseline).log10_success_rate)


def _unrunnable(kind: str):
    """A simulator and a program it must reject: one compiled for another
    device (TILT, QCCD) or a circuit wider than the device (ideal)."""
    noise = NoiseParameters.paper_defaults()
    circuit = bv_workload(8)
    if kind == "tilt":
        program = compile_for_tilt(circuit,
                                   TiltDevice(num_qubits=8, head_size=4))
        return TiltSimulator(TiltDevice(num_qubits=8, head_size=2),
                             noise), program
    if kind == "qccd":
        program = compile_for_qccd(circuit,
                                   QccdDevice(num_qubits=8, trap_capacity=3))
        return QccdSimulator(QccdDevice(num_qubits=8, trap_capacity=4),
                             noise), program
    return IdealSimulator(IdealTrappedIonDevice(num_qubits=4), noise), circuit


ENTRY_POINTS = {
    "run": lambda simulator, program: simulator.run(program),
    "run_crosstalk": lambda simulator, program: simulator.run(
        program, scenario="crosstalk"),
    "build_sampler": lambda simulator, program: simulator.build_sampler(
        program),
    "run_stochastic": lambda simulator, program: simulator.run_stochastic(
        program, shots=4),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["tilt", "ideal", "qccd"])
def test_every_entry_point_rejects_what_the_device_cannot_run(kind, entry):
    simulator, program = _unrunnable(kind)
    with pytest.raises(SimulationError):
        ENTRY_POINTS[entry](simulator, program)
