"""Quantum circuit intermediate representation.

Public surface:

* :class:`~repro.circuits.gate.Gate` — immutable gate record.
* :class:`~repro.circuits.circuit.Circuit` — ordered gate container.
* :class:`~repro.circuits.dag.FrontierTracker` — dependency analysis.
* :func:`~repro.circuits.qasm.circuit_to_qasm` / :func:`~repro.circuits.qasm.qasm_to_circuit`
  — OpenQASM 2.0 interchange.
* :func:`~repro.circuits.unitary.circuit_unitary` — dense unitary for
  correctness checks.
* :func:`~repro.circuits.random.random_circuit` — random circuit generation.
"""

from repro.circuits.circuit import Circuit, circuit_from_gates
from repro.circuits.dag import FrontierTracker
from repro.circuits.gate import (
    GATE_SPECS,
    NATIVE_GATE_NAMES,
    TWO_QUBIT_GATE_NAMES,
    Gate,
    gate,
)
from repro.circuits.qasm import circuit_to_qasm, qasm_to_circuit
from repro.circuits.random import random_circuit, random_native_circuit
from repro.circuits.unitary import (
    allclose_up_to_global_phase,
    circuit_unitary,
    gate_matrix,
)

__all__ = [
    "GATE_SPECS",
    "NATIVE_GATE_NAMES",
    "TWO_QUBIT_GATE_NAMES",
    "Circuit",
    "FrontierTracker",
    "Gate",
    "allclose_up_to_global_phase",
    "circuit_from_gates",
    "circuit_to_qasm",
    "circuit_unitary",
    "gate",
    "gate_matrix",
    "qasm_to_circuit",
    "random_circuit",
    "random_native_circuit",
]
