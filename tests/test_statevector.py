"""Tests for the dense state-vector simulator."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.random import random_circuit
from repro.circuits.unitary import circuit_unitary
from repro.compiler.decompose import decompose_to_native
from repro.exceptions import SimulationError
from repro.sim.statevector import (
    StatevectorSimulator,
    states_equal_up_to_global_phase,
)


class TestBasics:
    def test_initial_state_is_all_zero(self, statevector):
        state = statevector.run(Circuit(3))
        assert np.isclose(state[0], 1.0)

    def test_bell_state(self, statevector, bell_circuit):
        probabilities = statevector.probabilities(bell_circuit)
        assert probabilities == pytest.approx([0.5, 0, 0, 0.5], abs=1e-12)

    def test_ghz_state(self, statevector, ghz5):
        probabilities = statevector.probabilities(ghz5)
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[-1] == pytest.approx(0.5)

    def test_measure_and_barrier_are_ignored(self, statevector):
        circuit = Circuit(1).h(0).barrier().measure(0)
        state = statevector.run(circuit)
        assert np.allclose(np.abs(state) ** 2, [0.5, 0.5])

    def test_custom_initial_state(self, statevector):
        initial = np.zeros(2, dtype=complex)
        initial[1] = 1.0
        state = statevector.run(Circuit(1).x(0), initial_state=initial)
        assert np.isclose(abs(state[0]), 1.0)

    def test_wrong_initial_state_dimension(self, statevector):
        with pytest.raises(SimulationError):
            statevector.run(Circuit(2), initial_state=np.ones(2))

    def test_width_cap(self):
        simulator = StatevectorSimulator(max_qubits=3)
        with pytest.raises(SimulationError):
            simulator.run(Circuit(4))

    def test_matches_circuit_unitary(self, statevector):
        for seed in range(5):
            circuit = random_circuit(4, 20, seed=seed)
            state = statevector.run(circuit)
            expected = circuit_unitary(circuit)[:, 0]
            assert states_equal_up_to_global_phase(state, expected)


class TestReadout:
    def test_most_probable(self, statevector):
        circuit = Circuit(3).x(0).x(2)
        assert statevector.most_probable(circuit) == "101"

    def test_expectation_z(self, statevector):
        assert statevector.expectation_z(Circuit(1), 0) == pytest.approx(1.0)
        assert statevector.expectation_z(Circuit(1).x(0), 0) == pytest.approx(-1.0)
        assert statevector.expectation_z(Circuit(1).h(0), 0) == pytest.approx(0.0, abs=1e-12)

    def test_expectation_z_validates_qubit(self, statevector):
        with pytest.raises(SimulationError):
            statevector.expectation_z(Circuit(1), 3)


class TestEquivalences:
    def test_native_decomposition_preserves_state(self, statevector):
        for seed in range(4):
            circuit = random_circuit(4, 25, seed=100 + seed)
            native = decompose_to_native(circuit)
            assert states_equal_up_to_global_phase(
                statevector.run(circuit), statevector.run(native)
            )

    def test_swap_symmetry(self, statevector):
        circuit = Circuit(2).x(0).swap(0, 1)
        assert statevector.most_probable(circuit) == "01"

    def test_global_phase_comparison_helper(self):
        state = np.array([1.0, 0.0], dtype=complex)
        assert states_equal_up_to_global_phase(state, np.exp(1j) * state)
        assert not states_equal_up_to_global_phase(state, np.array([0.0, 1.0]))
