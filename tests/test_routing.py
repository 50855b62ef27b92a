"""Tests for swap insertion: the LinQ router (Algorithm 1) and the baseline."""

import math
import random

import pytest

from tests.conftest import routed_state_matches_logical
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler.decompose import decompose_to_native
from repro.compiler.pipeline import lower_to_native
from repro.compiler.layout import QubitMapping
from repro.compiler.routing import (
    RoutingResult,
    SwapRecord,
    check_routed,
    classify_opposing,
    relabeller,
)
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.exceptions import RoutingError
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


def long_distance_circuit(num_qubits: int = 12) -> Circuit:
    """A few deliberately long CX gates plus local structure."""
    circuit = Circuit(num_qubits)
    circuit.h(0)
    circuit.cx(0, num_qubits - 1)
    circuit.cx(1, num_qubits - 2)
    circuit.cx(0, 1)
    circuit.cx(num_qubits - 1, num_qubits // 2)
    return circuit


class TestRoutingResult:
    def test_swap_statistics(self):
        circuit = Circuit(4)
        result = RoutingResult(circuit, QubitMapping.identity(4),
                               QubitMapping.identity(4))
        assert result.num_swaps == 0
        assert result.opposing_swap_ratio == 0.0
        result.swaps.append(SwapRecord((0, 2), 0, 0, True))
        result.swaps.append(SwapRecord((1, 3), 1, 0, False))
        assert result.num_swaps == 2
        assert result.num_opposing_swaps == 1
        assert result.opposing_swap_ratio == 0.5
        assert result.max_swap_span() == 2

    def test_check_routed_raises_for_long_gate(self, tilt8):
        circuit = Circuit(8).cx(0, 7)
        with pytest.raises(RoutingError):
            check_routed(circuit, tilt8)


class TestOpposingClassification:
    def test_two_opposite_beneficiaries(self):
        # Gates (0, 7) and (6, 1): swapping positions 2 and 5 moves qubit 2's
        # data right (helping nothing) — use qubits 0 and 6 as the swap pair.
        mapping = QubitMapping.identity(8)
        pending = [(0, Gate("cx", (0, 7))), (1, Gate("cx", (6, 1)))]
        assert classify_opposing(2, 5, pending, mapping) is False
        # Swap positions of qubits 0..? place qubit 0 at 3, qubit 6 at ...:
        # swapping positions (3, 6): qubit 3 moves right (no pending gate),
        # qubit 6 moves left toward qubit 1 -> only one direction benefits.
        assert classify_opposing(3, 6, pending, mapping) is False
        # Swapping positions (0, 6): qubit 0 moves right toward 7 AND qubit 6
        # moves left toward 1 -> opposing.
        assert classify_opposing(0, 6, pending, mapping) is True

    def test_single_gate_is_not_opposing(self):
        mapping = QubitMapping.identity(8)
        pending = [(0, Gate("cx", (0, 7)))]
        assert classify_opposing(0, 3, pending, mapping) is False


class TestLinqRouter:
    def test_all_gates_become_executable(self, tilt16):
        router = LinqSwapInserter(tilt16)
        native = decompose_to_native(qft_workload(16))
        result = router.route(native)
        check_routed(result.circuit, tilt16)

    def test_no_swaps_for_local_circuit(self, tilt16):
        circuit = Circuit(16)
        for q in range(15):
            circuit.cx(q, q + 1)
        result = LinqSwapInserter(tilt16).route(circuit)
        assert result.num_swaps == 0
        assert result.circuit.gates == circuit.gates

    def test_swap_span_respects_max_swap_len(self, tilt16):
        router = LinqSwapInserter(tilt16, max_swap_len=4)
        result = router.route(decompose_to_native(bv_workload(16)))
        assert result.max_swap_span() <= 4

    def test_invalid_configuration(self, tilt16):
        with pytest.raises(RoutingError):
            LinqSwapInserter(tilt16, max_swap_len=0)
        with pytest.raises(RoutingError):
            LinqSwapInserter(tilt16, max_swap_len=8)
        with pytest.raises(RoutingError):
            LinqSwapInserter(tilt16, alpha=1.0)
        with pytest.raises(RoutingError):
            LinqSwapInserter(tilt16, lookahead_window=0)

    def test_too_wide_circuit_rejected(self, tilt8):
        with pytest.raises(RoutingError):
            LinqSwapInserter(tilt8).route(Circuit(9))

    def test_swap_records_reference_swap_gates(self, tilt8):
        result = LinqSwapInserter(tilt8).route(long_distance_circuit(8))
        for record in result.swaps:
            gate = result.circuit[record.gate_index]
            assert gate.name == "swap"
            assert tuple(sorted(gate.qubits)) == record.physical_pair

    def test_final_mapping_tracks_swaps(self, tilt8):
        result = LinqSwapInserter(tilt8).route(long_distance_circuit(8))
        mapping = result.initial_mapping.copy()
        for record in result.swaps:
            mapping.swap_physical(*record.physical_pair)
        assert mapping == result.final_mapping

    def test_semantics_preserved(self, tilt8, statevector):
        logical = long_distance_circuit(8)
        native = decompose_to_native(logical)
        result = LinqSwapInserter(tilt8).route(native)
        logical_state = statevector.run(logical)
        assert routed_state_matches_logical(
            result.circuit, result.final_mapping, logical_state, statevector
        )

    def test_semantics_preserved_with_nontrivial_initial_mapping(
            self, tilt8, statevector):
        logical = long_distance_circuit(8)
        native = decompose_to_native(logical)
        initial = QubitMapping([3, 5, 0, 1, 2, 4, 7, 6])
        result = LinqSwapInserter(tilt8).route(native, initial)
        logical_state = statevector.run(logical)
        assert routed_state_matches_logical(
            result.circuit, result.final_mapping, logical_state, statevector
        )


class TestBaselineRouter:
    def test_all_gates_become_executable(self, tilt16):
        result = BaselineSwapInserter(tilt16).route(
            decompose_to_native(bv_workload(16))
        )
        check_routed(result.circuit, tilt16)

    def test_deterministic_for_fixed_seed(self, tilt16):
        native = decompose_to_native(bv_workload(16))
        a = BaselineSwapInserter(tilt16, seed=3).route(native)
        b = BaselineSwapInserter(tilt16, seed=3).route(native)
        assert a.circuit.gates == b.circuit.gates

    def test_swaps_use_full_span(self, tilt16):
        result = BaselineSwapInserter(tilt16, trials=1).route(
            decompose_to_native(bv_workload(16))
        )
        assert result.num_swaps > 0
        assert result.max_swap_span() == tilt16.max_gate_span

    def test_semantics_preserved(self, tilt8, statevector):
        logical = long_distance_circuit(8)
        native = decompose_to_native(logical)
        result = BaselineSwapInserter(tilt8).route(native)
        logical_state = statevector.run(logical)
        assert routed_state_matches_logical(
            result.circuit, result.final_mapping, logical_state, statevector
        )

    def test_invalid_configuration(self, tilt16):
        with pytest.raises(RoutingError):
            BaselineSwapInserter(tilt16, trials=0)
        with pytest.raises(RoutingError):
            BaselineSwapInserter(tilt16, max_swap_len=99)

    def test_linq_beats_baseline_on_qft(self, tilt16):
        native = decompose_to_native(qft_workload(16))
        linq = LinqSwapInserter(tilt16).route(native)
        baseline = BaselineSwapInserter(tilt16).route(native)
        assert linq.num_swaps <= baseline.num_swaps
        assert linq.opposing_swap_ratio >= baseline.opposing_swap_ratio


@pytest.mark.parametrize("router", [LinqSwapInserter, BaselineSwapInserter])
@pytest.mark.parametrize("size", [4, 8])
def test_initial_mapping_must_place_every_ion(router, size):
    """A mapping smaller or larger than the chain is rejected up front."""
    device = TiltDevice(num_qubits=6, head_size=4)
    circuit = Circuit(6).h(3).cx(0, 5)
    with pytest.raises(RoutingError, match=f"initial mapping has {size} "
                                           "qubits but the device has 6"):
        router(device).route(circuit, QubitMapping.identity(size))


class TestSharedRelabels:
    def test_relabel_equals_remapped(self, monkeypatch):
        """Under a changing mapping, each relabel equals what
        ``Gate.remapped`` returns, sign of zero included; a gate moved
        to the same qubits again is the same object, built once."""
        rng = random.Random(4)
        gates = [Gate("xx", (0, 5), (0.3,)), Gate("xx", (2, 1), (-0.7,)),
                 Gate("rz", (3,), (0.0,)), Gate("rz", (3,), (-0.0,)),
                 Gate("measure", (4,)), Gate("barrier", (0, 2, 4))]
        position = list(range(6))
        relabel = relabeller(position)
        remapped = Gate.remapped
        built = []

        def counted(gate, mapping):
            moved = remapped(gate, mapping)
            built.append((id(gate), moved.qubits))
            return moved

        monkeypatch.setattr(Gate, "remapped", counted)
        seen: dict[tuple, Gate] = {}
        for _ in range(300):
            gate = rng.choice(gates)
            got = relabel(gate)
            want = remapped(gate, position)
            assert (got.name, got.qubits, got.params) == (
                want.name, want.qubits, want.params)
            assert [math.copysign(1.0, p) for p in got.params] == [
                math.copysign(1.0, p) for p in want.params]
            if got is not gate:
                assert seen.setdefault((id(gate), got.qubits), got) is got
            if rng.random() < 0.2:
                a, b = rng.sample(range(6), 2)
                position[a], position[b] = position[b], position[a]
        assert len(built) == len(set(built)) == len(seen) > 0

    @pytest.mark.parametrize("router", [LinqSwapInserter,
                                        BaselineSwapInserter])
    def test_signed_zeros_survive_lowering_and_routing(self, router):
        """Without rotation merging, ``rz(±0.0)`` and ``p(±0.0)`` keep
        their sign through the lowering and both routers, on moved
        qubits, though ``==`` does not tell the signs apart."""
        circuit = Circuit(6, "zeros")
        for _ in range(2):
            circuit.rz(0.0, 0).rz(-0.0, 0).p(0.0, 0).p(-0.0, 0).cx(0, 5)
        signs = [1.0, -1.0, 1.0, -1.0] * 2
        native = lower_to_native(circuit, merge_rotations=False)

        def zero_signs(gates):
            return [math.copysign(1.0, gate.params[0]) for gate in gates
                    if gate.name == "rz" and gate.params[0] == 0.0]

        assert zero_signs(native) == signs
        reversed_layout = QubitMapping(list(range(5, -1, -1)))
        routed = router(TiltDevice(num_qubits=6, head_size=4)).route(
            native, reversed_layout).circuit
        assert zero_signs(routed) == signs
        first_round = [gate.qubits for gate in routed
                       if gate.name == "rz" and gate.params[0] == 0.0][:4]
        assert first_round == [(5,)] * 4

