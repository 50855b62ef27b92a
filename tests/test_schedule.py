"""Tests for tape-movement scheduling (Algorithm 2) and ExecutableProgram."""

import pytest

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.compiler.decompose import decompose_to_native
from repro.compiler.executable import ExecutableProgram, TapeSegment
from repro.compiler.schedule import SchedulerConfig, TapeScheduler, schedule_tape_moves
from repro.compiler.swap_linq import LinqSwapInserter
from repro.exceptions import SchedulingError
from repro.workloads.qft import qft_workload


def routed_qft(device: TiltDevice, width: int) -> Circuit:
    native = decompose_to_native(qft_workload(width))
    return LinqSwapInserter(device).route(native).circuit


class TestScheduler:
    def test_every_gate_scheduled_once(self, tilt16):
        circuit = routed_qft(tilt16, 16)
        program = schedule_tape_moves(circuit, tilt16)
        scheduled = [i for segment in program.segments for i in segment.gate_indices]
        assert sorted(scheduled) == list(range(len(circuit)))

    def test_gates_fit_their_windows(self, tilt16):
        circuit = routed_qft(tilt16, 16)
        program = schedule_tape_moves(circuit, tilt16)
        program.validate()  # would raise on any window violation

    def test_single_window_circuit_needs_no_moves(self, tilt16):
        circuit = Circuit(16)
        for q in range(7):
            circuit.cx(q, q + 1)
        program = schedule_tape_moves(circuit, tilt16)
        assert program.num_moves == 0
        assert len(program.segments) == 1

    def test_full_coverage_needs_at_least_width_ratio_moves(self, tilt16):
        circuit = Circuit(16)
        for q in range(16):
            circuit.rz(0.1, q)
        program = schedule_tape_moves(circuit, tilt16)
        assert program.num_moves >= 1  # 16 qubits / 8-wide head

    def test_unrouted_gate_rejected(self, tilt16):
        with pytest.raises(SchedulingError):
            schedule_tape_moves(Circuit(16).cx(0, 15), tilt16)

    def test_wide_three_qubit_gate_rejected_up_front(self, tilt16):
        with pytest.raises(SchedulingError, match="route first"):
            schedule_tape_moves(Circuit(16).ccx(0, 5, 12), tilt16)

    def test_circuit_wider_than_the_chain_rejected(self, tilt8):
        circuit = Circuit(12).xx(0.5, 9, 10)
        with pytest.raises(SchedulingError,
                           match="circuit has 12 qubits but the device has 8"):
            schedule_tape_moves(circuit, tilt8)

    def test_full_width_barrier_rejected(self, tilt16):
        circuit = Circuit(16).barrier()
        with pytest.raises(SchedulingError):
            schedule_tape_moves(circuit, tilt16)

    def test_initial_position_respected(self, tilt16):
        circuit = Circuit(16).rz(0.3, 0)
        config = SchedulerConfig(initial_position=8)
        program = TapeScheduler(tilt16, config).schedule(circuit)
        # One move is needed because qubit 0 is not under a head at position 8.
        assert program.segments[0].position == 0
        assert program.num_moves == 0  # the first alignment is free

    def test_invalid_initial_position(self, tilt16):
        with pytest.raises(SchedulingError):
            TapeScheduler(tilt16, SchedulerConfig(initial_position=99))

    def test_near_move_tie_break_reduces_travel(self, tilt16):
        circuit = routed_qft(tilt16, 16)
        near = TapeScheduler(
            tilt16, SchedulerConfig(prefer_near_moves=True)
        ).schedule(circuit)
        far = TapeScheduler(
            tilt16, SchedulerConfig(prefer_near_moves=False)
        ).schedule(circuit)
        assert near.move_distance_ions <= far.move_distance_ions

    def test_dependencies_respected_in_execution_order(self, tilt16):
        circuit = routed_qft(tilt16, 16)
        program = schedule_tape_moves(circuit, tilt16)
        seen: set[int] = set()
        last_on_qubit: dict[int, int] = {}
        for segment in program.segments:
            for index in segment.gate_indices:
                gate = circuit[index]
                for qubit in gate.qubits:
                    previous = last_on_qubit.get(qubit)
                    assert previous is None or previous < index
                    last_on_qubit[qubit] = index
                seen.add(index)
        assert len(seen) == len(circuit)


class TestExecutableProgram:
    def _program(self, tilt8) -> ExecutableProgram:
        circuit = Circuit(8).cx(0, 1).cx(6, 7)
        return ExecutableProgram(
            circuit,
            tilt8,
            [TapeSegment(0, (0,)), TapeSegment(4, (1,))],
        )

    def test_metrics(self, tilt8):
        program = self._program(tilt8)
        assert program.num_moves == 1
        assert program.move_distance_ions == 4
        assert program.move_distance_um == pytest.approx(20.0)
        assert program.num_scheduled_gates == 2
        assert program.positions() == [0, 4]

    def test_gates_with_move_counts(self, tilt8):
        program = self._program(tilt8)
        moves = [m for _, m in program.gates_with_move_counts()]
        assert moves == [0, 1]

    def test_validate_accepts_good_program(self, tilt8):
        self._program(tilt8).validate()

    def test_validate_rejects_out_of_window_gate(self, tilt8):
        circuit = Circuit(8).cx(6, 7)
        program = ExecutableProgram(circuit, tilt8, [TapeSegment(0, (0,))])
        with pytest.raises(SchedulingError):
            program.validate()

    def test_validate_rejects_missing_gate(self, tilt8):
        circuit = Circuit(8).cx(0, 1).cx(1, 2)
        program = ExecutableProgram(circuit, tilt8, [TapeSegment(0, (0,))])
        with pytest.raises(SchedulingError):
            program.validate()

    @pytest.mark.parametrize("segments,message", [
        ([TapeSegment(0, (0, 1, 5))], "names gate 5"),
        ([TapeSegment(0, (0, 1, -1))], "names gate -1"),
        ([TapeSegment(0, (0, 1)), TapeSegment(1, (1,))], "exactly once"),
    ])
    def test_validate_rejects_bad_gate_index(self, tilt8, segments, message):
        circuit = Circuit(8).cx(0, 1).cx(1, 2)
        program = ExecutableProgram(circuit, tilt8, segments)
        with pytest.raises(SchedulingError, match=message):
            program.validate()

    def test_validate_rejects_dependency_violation(self, tilt8):
        circuit = Circuit(8).rz(0.1, 0).rx(0.2, 0)
        program = ExecutableProgram(
            circuit, tilt8, [TapeSegment(0, (1, 0))]
        )
        with pytest.raises(SchedulingError):
            program.validate()

    def test_summary_mentions_moves(self, tilt8):
        assert "1 moves" in self._program(tilt8).summary()
