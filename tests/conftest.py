"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.noise.parameters import NoiseParameters
from repro.sim.statevector import StatevectorSimulator


@pytest.fixture
def tilt8() -> TiltDevice:
    """An 8-ion tape with a 4-laser head (smallest interesting TILT)."""
    return TiltDevice(num_qubits=8, head_size=4)


@pytest.fixture
def tilt16() -> TiltDevice:
    """A 16-ion tape with an 8-laser head (used by most routing tests)."""
    return TiltDevice(num_qubits=16, head_size=8)


@pytest.fixture
def ideal16() -> IdealTrappedIonDevice:
    return IdealTrappedIonDevice(num_qubits=16)


@pytest.fixture
def qccd16() -> QccdDevice:
    """16 ions in traps of 5 (so cross-trap traffic definitely occurs)."""
    return QccdDevice(num_qubits=16, trap_capacity=5)


@pytest.fixture
def noise() -> NoiseParameters:
    return NoiseParameters.paper_defaults()


@pytest.fixture
def noiseless() -> NoiseParameters:
    return NoiseParameters.noiseless()


@pytest.fixture
def statevector() -> StatevectorSimulator:
    return StatevectorSimulator()


@pytest.fixture
def bell_circuit() -> Circuit:
    circuit = Circuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def ghz5() -> Circuit:
    circuit = Circuit(5, name="ghz5")
    circuit.h(0)
    for q in range(4):
        circuit.cx(q, q + 1)
    return circuit


def permute_statevector(state: np.ndarray, new_from_old: list[int]) -> np.ndarray:
    """Relabel qubits of a state vector.

    ``new_from_old[old_qubit] = new_qubit``; qubit 0 is the most significant
    bit of the basis index (matching :mod:`repro.circuits.unitary`).
    """
    n = len(new_from_old)
    assert state.shape == (2**n,)
    tensor = state.reshape((2,) * n)
    # Axis i of the tensor is qubit i; move axis old -> new.
    permuted = np.moveaxis(tensor, list(range(n)), new_from_old)
    return permuted.reshape(2**n)


def routed_state_matches_logical(routed_circuit, final_mapping, logical_state,
                                 simulator: StatevectorSimulator) -> bool:
    """Check a routed (physical) circuit is equivalent to its logical source.

    The routed circuit acts on ``num_physical`` wires; after execution the
    logical qubit ``l`` lives at physical position ``final_mapping.physical(l)``.
    Undoing that relabelling must reproduce the logical final state (extended
    with |0> on the spare physical wires).
    """
    from repro.sim.statevector import states_equal_up_to_global_phase

    physical_state = simulator.run(routed_circuit)
    # Relabel physical wires back to logical indices.
    new_from_old = [0] * routed_circuit.num_qubits
    for physical in range(routed_circuit.num_qubits):
        new_from_old[physical] = final_mapping.logical(physical)
    unpermuted = permute_statevector(physical_state, new_from_old)
    num_logical = int(np.log2(len(logical_state)))
    num_physical = routed_circuit.num_qubits
    padding = np.zeros(2 ** (num_physical - num_logical), dtype=complex)
    padding[0] = 1.0
    expected = np.kron(logical_state, padding)
    return states_equal_up_to_global_phase(unpermuted, expected)


#: z of the fixed-seed sampled-vs-analytic agreement checks.  Each check
#: samples one seed, so with 95 % intervals a change of shot stream
#: fails one of ten checks with odds 1 - 0.95**10 ~ 40 % by chance
#: alone.  The checks use 4-sigma Wilson intervals instead, with shots
#: scaled by (4 / 1.96)**2 so that no half-width grows; the odds of a
#: false failure per check fall to ~6e-5.
AGREEMENT_Z = 4.0


def agrees_within_4_sigma(shot, rate: float) -> bool:
    """True when *rate* lies in the 4-sigma Wilson interval of *shot*."""
    from repro.sim.stochastic import wilson_interval

    low, high = wilson_interval(shot.successes, shot.shots, z=AGREEMENT_Z)
    return low <= rate <= high
