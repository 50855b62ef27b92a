"""Dense state-vector simulator.

This is the correctness substrate of the reproduction: it executes circuits
exactly (no noise) so tests can verify that the workload generators compute
what they claim (the adder adds, BV recovers its secret, Grover amplifies
the marked state) and that compiled circuits remain equivalent to their
sources up to the mapping permutation.

The simulator is intentionally simple — it targets the widths used in tests
(up to ~16 qubits), not the 64-qubit experiment sizes, which only ever go
through the analytical fidelity model.

Batched execution
-----------------
:meth:`StatevectorSimulator.run_batch` executes several circuits at once
on a ``(batch, 2, ..., 2)`` tensor: at each lockstep position, members
that share the same gate are contracted with **one** tensordot over the
batch axis (:func:`_apply_gate_batch`) instead of one per member.
:func:`batch_probabilities_with_insertions` uses the same kernel to run a
shared base gate sequence batched and apply each member's injected Pauli
errors to its own slice.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.circuits.unitary import gate_matrix
from repro.exceptions import SimulationError

#: Hard cap on simulated width to avoid accidental exponential blow-ups.
MAX_STATEVECTOR_QUBITS = 22

#: Batched execution processes members in blocks of this size so the
#: working set stays bounded (a block of 16-qubit states is ~32 MB).
BATCH_BLOCK = 32


class StatevectorSimulator:
    """Exact (noise-free) circuit execution on a dense state vector."""

    def __init__(self, max_qubits: int = MAX_STATEVECTOR_QUBITS) -> None:
        self.max_qubits = max_qubits

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit,
            initial_state: np.ndarray | None = None) -> np.ndarray:
        """Return the final state vector of *circuit*.

        Measurements and barriers are ignored (the state is left un-collapsed
        so tests can inspect exact amplitudes).
        """
        n = circuit.num_qubits
        if n > self.max_qubits:
            raise SimulationError(
                f"statevector simulation limited to {self.max_qubits} qubits, "
                f"got {n}"
            )
        if initial_state is None:
            state = np.zeros(2**n, dtype=complex)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).copy()
            if state.shape != (2**n,):
                raise SimulationError("initial state has the wrong dimension")
        tensor = state.reshape((2,) * n)
        for gate in circuit:
            if gate.name in ("barrier", "measure"):
                continue
            tensor = _apply_gate(tensor, gate, n)
        return tensor.reshape(2**n)

    def run_batch(self, circuits: Sequence[Circuit],
                  initial_states: Sequence[np.ndarray] | None = None,
                  ) -> np.ndarray:
        """Final state vectors of *circuits* as a ``(batch, 2**n)`` array.

        Circuits must share a register width but may differ in content:
        at each lockstep position, members carrying the same gate are
        applied with one batched contraction; the rest fall back to
        per-member application.  Shorter members simply stop early.
        Numerically equivalent to stacking :meth:`run` of each circuit
        (``tests/test_statevector_batch.py`` pins the agreement to
        1e-12; the batched contraction may round the last bits
        differently from the serial one, which is why the sampler's
        bit-identity contract re-simulates patterns serially).
        """
        if not circuits:
            raise SimulationError("run_batch needs at least one circuit")
        n = circuits[0].num_qubits
        if any(circuit.num_qubits != n for circuit in circuits):
            raise SimulationError("run_batch circuits must share a width")
        if n > self.max_qubits:
            raise SimulationError(
                f"statevector simulation limited to {self.max_qubits} "
                f"qubits, got {n}"
            )
        batch = len(circuits)
        tensors = np.zeros((batch,) + (2,) * n, dtype=complex)
        if initial_states is None:
            tensors.reshape(batch, 2**n)[:, 0] = 1.0
        else:
            if len(initial_states) != batch:
                raise SimulationError(
                    "one initial state per circuit is required"
                )
            flat = tensors.reshape(batch, 2**n)
            for member, state in enumerate(initial_states):
                state = np.asarray(state, dtype=complex)
                if state.shape != (2**n,):
                    raise SimulationError(
                        "initial state has the wrong dimension"
                    )
                flat[member] = state
        sequences = [
            [gate for gate in circuit
             if gate.name not in ("barrier", "measure")]
            for circuit in circuits
        ]
        for position in range(max(len(seq) for seq in sequences)):
            groups: dict[Gate, list[int]] = {}
            for member, sequence in enumerate(sequences):
                if position < len(sequence):
                    groups.setdefault(sequence[position], []).append(member)
            for gate, members in groups.items():
                if len(members) == batch:
                    tensors = _apply_gate_batch(tensors, gate, n)
                else:
                    block = _apply_gate_batch(tensors[members], gate, n)
                    tensors[members] = block
        return tensors.reshape(batch, 2**n)

    def probabilities_batch(self, circuits: Sequence[Circuit]) -> np.ndarray:
        """Measurement probabilities of each circuit, ``(batch, 2**n)``."""
        amplitudes = self.run_batch(circuits)
        return np.abs(amplitudes) ** 2

    # ------------------------------------------------------------------
    # Read-out helpers
    # ------------------------------------------------------------------
    def probabilities(self, circuit: Circuit) -> np.ndarray:
        """Measurement probabilities of every basis state after *circuit*."""
        amplitudes = self.run(circuit)
        return np.abs(amplitudes) ** 2

    def most_probable(self, circuit: Circuit) -> str:
        """The single most likely measurement outcome (qubit 0 leftmost)."""
        probabilities = self.probabilities(circuit)
        return format(int(np.argmax(probabilities)), f"0{circuit.num_qubits}b")

    def expectation_z(self, circuit: Circuit, qubit: int) -> float:
        """<Z> on *qubit* after running *circuit*."""
        if not 0 <= qubit < circuit.num_qubits:
            raise SimulationError("qubit index out of range")
        probabilities = self.probabilities(circuit)
        n = circuit.num_qubits
        expectation = 0.0
        for basis_state, probability in enumerate(probabilities):
            bit = (basis_state >> (n - 1 - qubit)) & 1
            expectation += probability * (1.0 if bit == 0 else -1.0)
        return float(expectation)


def _apply_gate(tensor: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply *gate* to the state tensor (qubit 0 = axis 0)."""
    matrix = gate_matrix(gate)
    k = gate.num_qubits
    reshaped = matrix.reshape((2,) * (2 * k))
    axes = list(gate.qubits)
    # Contract the gate's "input" indices with the state's qubit axes.
    tensor = np.tensordot(reshaped, tensor, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts the gate's output indices first; move them back.
    return np.moveaxis(tensor, list(range(k)), axes)


def _apply_gate_batch(tensors: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to a ``(batch, 2, ..., 2)`` stack of state tensors.

    The batch axis rides along as a free index of the same tensordot the
    serial kernel uses (qubit ``q`` lives on axis ``q + 1``), so one
    contraction advances every member at once.
    """
    matrix = gate_matrix(gate)
    k = gate.num_qubits
    reshaped = matrix.reshape((2,) * (2 * k))
    axes = [qubit + 1 for qubit in gate.qubits]
    out = np.tensordot(reshaped, tensors,
                       axes=(list(range(k, 2 * k)), axes))
    # output axes land first, the batch axis right after them; restore
    # (batch, qubits...) order
    out = np.moveaxis(out, k, 0)
    return np.moveaxis(out, list(range(1, k + 1)), axes)


def batch_probabilities_with_insertions(
    base_gates: Sequence[Gate], num_qubits: int,
    insertions: Sequence[Mapping[int, Sequence[Gate]]],
    drops: Sequence[frozenset[int]] | None = None,
    max_qubits: int = MAX_STATEVECTOR_QUBITS,
) -> np.ndarray:
    """Probabilities of a shared gate sequence under per-member edits.

    Every member executes *base_gates*, member ``m`` additionally
    applies ``insertions[m][i]`` right after base gate ``i`` (Pauli
    errors) and skips base positions in ``drops[m]`` (gates on a leaked
    qubit).  The shared base sequence is advanced with the batched
    kernel; only the sparse per-member edits touch a single slice.
    Returns a ``(batch, 2**num_qubits)`` array.  Members are processed
    in blocks of :data:`BATCH_BLOCK` to bound the working set.

    Its callers are ``tests/test_statevector_batch.py`` and the
    ``statevector_batch`` harness group
    (``benchmarks/bench_stochastic.py``).  The stochastic sampler's
    ``_sample_counts`` does not use it: it re-simulates each distinct
    error pattern with :meth:`StatevectorSimulator.probabilities`.
    """
    if num_qubits > max_qubits:
        raise SimulationError(
            f"statevector simulation limited to {max_qubits} qubits, "
            f"got {num_qubits}"
        )
    batch = len(insertions)
    gates = [gate for gate in base_gates
             if gate.name not in ("barrier", "measure")]
    # base positions must refer to the *unfiltered* sequence the sampler
    # indexes by, so keep the original indices alongside
    indexed = [
        (index, gate) for index, gate in enumerate(base_gates)
        if gate.name not in ("barrier", "measure")
    ]
    del gates
    result = np.empty((batch, 2**num_qubits))
    for start in range(0, batch, BATCH_BLOCK):
        members = range(start, min(start + BATCH_BLOCK, batch))
        block = np.zeros((len(members),) + (2,) * num_qubits, dtype=complex)
        block.reshape(len(members), -1)[:, 0] = 1.0
        uniform_drops = all(
            drops is None or not drops[member] for member in members
        )
        for index, gate in indexed:
            if uniform_drops:
                block = _apply_gate_batch(block, gate, num_qubits)
            else:
                for offset, member in enumerate(members):
                    if drops is not None and index in drops[member]:
                        continue
                    block[offset] = _apply_gate(block[offset], gate,
                                                num_qubits)
            for offset, member in enumerate(members):
                for extra in insertions[member].get(index, ()):
                    block[offset] = _apply_gate(block[offset], extra,
                                                num_qubits)
        flat = block.reshape(len(members), -1)
        result[start:start + len(members)] = np.abs(flat) ** 2
    return result


def states_equal_up_to_global_phase(state_a: np.ndarray, state_b: np.ndarray,
                                    atol: float = 1e-9) -> bool:
    """True when two state vectors differ only by a global phase."""
    state_a = np.asarray(state_a)
    state_b = np.asarray(state_b)
    if state_a.shape != state_b.shape:
        return False
    overlap = np.vdot(state_a, state_b)
    norm = np.linalg.norm(state_a) * np.linalg.norm(state_b)
    if norm == 0:
        return False
    return bool(math.isclose(abs(overlap), norm, rel_tol=0, abs_tol=atol))
