"""Unit tests for the Gate primitive."""

import math

import pytest

from repro.circuits.gate import GATE_SPECS, Gate, gate
from repro.exceptions import CircuitError


class TestConstruction:
    def test_simple_gate(self):
        g = Gate("h", (3,))
        assert g.name == "h"
        assert g.qubits == (3,)
        assert g.params == ()
        assert g.num_qubits == 1

    def test_parameterised_gate(self):
        g = Gate("rz", (0,), (math.pi / 2,))
        assert g.params == (math.pi / 2,)

    def test_two_qubit_gate(self):
        g = Gate("cx", (1, 4))
        assert g.num_qubits == 2
        assert g.is_two_qubit
        assert g.span == 3

    def test_qubits_are_coerced_to_int(self):
        g = Gate("x", (np_int := 2,))
        assert isinstance(g.qubits[0], int)
        assert g.qubits[0] == np_int

    def test_helper_constructor(self):
        assert gate("cx", [0, 1]) == Gate("cx", (0, 1))

    def test_unknown_name_rejected(self):
        with pytest.raises(CircuitError):
            Gate("foo", (0,))

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(CircuitError):
            Gate("cx", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(CircuitError):
            Gate("x", (-1,))

    def test_wrong_param_count_rejected(self):
        with pytest.raises(CircuitError):
            Gate("rz", (0,))
        with pytest.raises(CircuitError):
            Gate("x", (0,), (0.1,))

    def test_barrier_needs_qubits(self):
        with pytest.raises(CircuitError):
            Gate("barrier", ())

    def test_barrier_accepts_any_width(self):
        g = Gate("barrier", (0, 1, 2, 3, 4))
        assert g.num_qubits == 5


class TestProperties:
    def test_native_membership(self):
        assert Gate("rx", (0,), (1.0,)).is_native
        assert Gate("xx", (0, 1), (0.5,)).is_native
        assert not Gate("cx", (0, 1)).is_native

    def test_unitary_flag(self):
        assert Gate("h", (0,)).is_unitary
        assert not Gate("measure", (0,)).is_unitary
        assert not Gate("barrier", (0, 1)).is_unitary

    def test_span_single_qubit(self):
        assert Gate("h", (5,)).span == 0

    def test_every_spec_entry_is_constructible(self):
        for name, (num_qubits, num_params) in GATE_SPECS.items():
            width = 2 if num_qubits < 0 else num_qubits
            g = Gate(name, tuple(range(width)), tuple(0.1 for _ in range(num_params)))
            assert g.name == name

    def test_str_contains_name_and_qubits(self):
        text = str(Gate("cp", (0, 2), (0.5,)))
        assert "cp" in text and "[0, 2]" in text


class TestRemap:
    def test_remap_with_list(self):
        g = Gate("cx", (0, 2)).remapped([5, 6, 7])
        assert g.qubits == (5, 7)

    def test_remap_with_dict(self):
        g = Gate("cx", (0, 2)).remapped({0: 9, 2: 1})
        assert g.qubits == (9, 1)

    def test_remap_preserves_params(self):
        g = Gate("rz", (1,), (0.25,)).remapped([3, 4])
        assert g.params == (0.25,)

    def test_remap_equals_a_gate_built_on_the_new_qubits(self):
        g = Gate("xx", (0, 2), (0.5,)).remapped([4, 1, 3])
        assert g == Gate("xx", (4, 3), (0.5,))
        assert hash(g) == hash(Gate("xx", (4, 3), (0.5,)))

    def test_remap_in_place_returns_the_gate(self):
        g = Gate("cx", (0, 2))
        assert g.remapped([0, 5, 2]) is g

    def test_remap_coerces_qubits_to_int(self):
        g = Gate("cx", (0, 2)).remapped({0: 3.0, 2: True})
        assert g.qubits == (3, 1)
        assert all(type(q) is int for q in g.qubits)

    def test_colliding_remap_rejected(self):
        with pytest.raises(CircuitError, match="duplicate qubits"):
            Gate("cx", (0, 2)).remapped({0: 5, 2: 5})

    def test_negative_remap_rejected(self):
        with pytest.raises(CircuitError, match="negative qubit index"):
            Gate("cx", (0, 2)).remapped({0: -1, 2: 3})


class TestInverse:
    def test_self_inverse_gates(self):
        for name in ("x", "y", "z", "h", "cx", "cz", "swap", "ccx"):
            width = GATE_SPECS[name][0]
            g = Gate(name, tuple(range(width)))
            assert g.inverse() == g

    def test_s_t_pairs(self):
        assert Gate("s", (0,)).inverse().name == "sdg"
        assert Gate("tdg", (0,)).inverse().name == "t"

    def test_rotation_inverse_negates_angle(self):
        g = Gate("rz", (0,), (0.7,))
        assert g.inverse().params == (-0.7,)

    def test_u3_inverse_swaps_phases(self):
        g = Gate("u3", (0,), (0.1, 0.2, 0.3))
        assert g.inverse().params == (-0.1, -0.3, -0.2)

    def test_measure_has_no_inverse(self):
        with pytest.raises(CircuitError):
            Gate("measure", (0,)).inverse()

    def test_inverse_is_involution_for_rotations(self):
        g = Gate("xx", (0, 1), (0.3,))
        assert g.inverse().inverse() == g
