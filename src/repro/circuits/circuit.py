"""Quantum circuit container used throughout the reproduction.

The :class:`Circuit` class is a light-weight ordered list of :class:`Gate`
objects over a fixed number of qubits.  It offers the operations the LinQ
compiler and the workload generators need: builder methods for every
supported gate, depth/operation statistics, composition, inversion, qubit
relabelling and OpenQASM 2.0 export.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.circuits.gate import GATE_SPECS, Gate
from repro.exceptions import CircuitError


class Circuit:
    """An ordered sequence of gates over ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: list[Gate] = []
        self.name = name

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits in the circuit register."""
        return self._num_qubits

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in program order (read-only view)."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits and self._gates == other._gates
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # Gate insertion
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append *gate*, validating its qubit indices against the register."""
        if max(gate.qubits) >= self._num_qubits:
            raise CircuitError(
                f"gate {gate} uses qubits outside register of size "
                f"{self._num_qubits}"
            )
        self._gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Iterable[float] = ()) -> "Circuit":
        """Append a gate given by name, qubits and optional parameters."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append every gate from *gates*."""
        for g in gates:
            self.append(g)
        return self

    # Named builder helpers -------------------------------------------------
    def id(self, q: int) -> "Circuit":
        return self.add("id", q)

    def x(self, q: int) -> "Circuit":
        return self.add("x", q)

    def y(self, q: int) -> "Circuit":
        return self.add("y", q)

    def z(self, q: int) -> "Circuit":
        return self.add("z", q)

    def h(self, q: int) -> "Circuit":
        return self.add("h", q)

    def s(self, q: int) -> "Circuit":
        return self.add("s", q)

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", q)

    def t(self, q: int) -> "Circuit":
        return self.add("t", q)

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", q)

    def sx(self, q: int) -> "Circuit":
        return self.add("sx", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", q, params=(theta,))

    def p(self, theta: float, q: int) -> "Circuit":
        return self.add("p", q, params=(theta,))

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u3", q, params=(theta, phi, lam))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", control, target)

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add("cz", control, target)

    def swap(self, q1: int, q2: int) -> "Circuit":
        return self.add("swap", q1, q2)

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cp", control, target, params=(theta,))

    def rzz(self, theta: float, q1: int, q2: int) -> "Circuit":
        return self.add("rzz", q1, q2, params=(theta,))

    def rxx(self, theta: float, q1: int, q2: int) -> "Circuit":
        return self.add("rxx", q1, q2, params=(theta,))

    def xx(self, theta: float, q1: int, q2: int) -> "Circuit":
        return self.add("xx", q1, q2, params=(theta,))

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add("ccx", c1, c2, target)

    def measure(self, q: int) -> "Circuit":
        return self.add("measure", q)

    def measure_all(self) -> "Circuit":
        for q in range(self._num_qubits):
            self.measure(q)
        return self

    def barrier(self, *qubits: int) -> "Circuit":
        targets = qubits if qubits else tuple(range(self._num_qubits))
        return self.append(Gate("barrier", targets))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def count_ops(self) -> dict[str, int]:
        """Return a histogram of gate names."""
        return dict(Counter(g.name for g in self._gates))

    def num_gates(self, *, include_structural: bool = False) -> int:
        """Number of gates, optionally excluding barriers."""
        if include_structural:
            return len(self._gates)
        return sum(1 for g in self._gates if g.name != "barrier")

    def two_qubit_gates(self) -> list[Gate]:
        """Gates acting on exactly two qubits (including SWAPs)."""
        return [g for g in self._gates if g.is_two_qubit]

    def num_two_qubit_gates(self) -> int:
        """Count of two-qubit gates (including SWAPs)."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """Circuit depth: the longest chain of dependent gates.

        With ``two_qubit_only=True`` only two-qubit gates advance the level,
        which matches how the paper counts "circuit depth" for scheduling.
        """
        level = [0] * self._num_qubits
        for g in self._gates:
            qubits = g.qubits
            if g.name == "barrier":
                if qubits:
                    top = max(level[q] for q in qubits)
                    for q in qubits:
                        level[q] = top
                continue
            counts = 0 if (two_qubit_only and not g.is_two_qubit) else 1
            if len(qubits) == 1:
                level[qubits[0]] += counts
            elif len(qubits) == 2:
                a, b = qubits
                top = (level[a] if level[a] > level[b] else level[b]) + counts
                level[a] = level[b] = top
            else:
                top = max(level[q] for q in qubits) + counts
                for q in qubits:
                    level[q] = top
        return max(level) if level else 0

    def active_qubits(self) -> set[int]:
        """The set of qubits touched by at least one non-barrier gate."""
        used: set[int] = set()
        for g in self._gates:
            if g.name != "barrier":
                used.update(g.qubits)
        return used

    def interaction_counts(self) -> dict[tuple[int, int], int]:
        """Histogram of (sorted) qubit pairs joined by two-qubit gates."""
        counts: Counter[tuple[int, int]] = Counter()
        for g in self._gates:
            if g.is_two_qubit:
                a, b = sorted(g.qubits)
                counts[(a, b)] += 1
        return dict(counts)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so this is safe)."""
        clone = Circuit(self._num_qubits, name or self.name)
        clone._gates = list(self._gates)
        return clone

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.num_qubits > self._num_qubits:
            raise CircuitError(
                "cannot compose a wider circuit onto a narrower one"
            )
        combined = self.copy()
        combined.extend(other.gates)
        return combined

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (gates reversed and inverted)."""
        inv = Circuit(self._num_qubits, f"{self.name}_dg")
        for g in reversed(self._gates):
            if g.name == "barrier":
                inv.append(g)
            elif g.name == "measure":
                raise CircuitError("cannot invert a circuit with measurements")
            else:
                inv.append(g.inverse())
        return inv

    def remap(self, mapping: Sequence[int] | Mapping[int, int],
              num_qubits: int | None = None) -> "Circuit":
        """Return a copy with every qubit ``q`` relabelled to ``mapping[q]``."""
        new_size = num_qubits if num_qubits is not None else self._num_qubits
        out = Circuit(new_size, self.name)
        for g in self._gates:
            out.append(g.remapped(mapping))
        return out

    def without(self, names: Iterable[str]) -> "Circuit":
        """Return a copy with every gate whose name is in *names* removed."""
        drop = set(names)
        out = Circuit(self._num_qubits, self.name)
        out._gates = [g for g in self._gates if g.name not in drop]
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_qasm(self) -> str:
        """Serialise the circuit to OpenQASM 2.0 text."""
        from repro.circuits.qasm import circuit_to_qasm

        return circuit_to_qasm(self)

    def summary(self) -> str:
        """Human-readable one-paragraph summary of the circuit."""
        ops = self.count_ops()
        two_q = self.num_two_qubit_gates()
        return (
            f"{self.name}: {self._num_qubits} qubits, {len(self)} gates "
            f"({two_q} two-qubit), depth {self.depth()}, ops={ops}"
        )


def circuit_from_gates(num_qubits: int, gates: Iterable[Gate],
                       name: str = "circuit") -> Circuit:
    """Build a :class:`Circuit` from an iterable of gates."""
    circ = Circuit(num_qubits, name)
    circ.extend(gates)
    return circ
