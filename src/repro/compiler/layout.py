"""Logical-to-physical qubit mapping.

On a TILT machine the physical qubits are positions along the ion chain.  A
:class:`QubitMapping` is a bijection between the program's logical qubits and
those positions; routing updates it every time a SWAP is inserted.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.circuits.gate import Gate
from repro.exceptions import CompilationError


class QubitMapping:
    """Bijective map between logical qubits and physical chain positions."""

    def __init__(self, logical_to_physical: Sequence[int]) -> None:
        layout = list(int(p) for p in logical_to_physical)
        size = len(layout)
        if sorted(layout) != list(range(size)):
            raise CompilationError(
                "logical_to_physical must be a permutation of 0..n-1"
            )
        self._log_to_phys = layout
        self._phys_to_log = [0] * size
        for logical, physical in enumerate(layout):
            self._phys_to_log[physical] = logical

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "QubitMapping":
        """The trivial mapping: logical qubit i sits at position i."""
        return cls(list(range(num_qubits)))

    def copy(self) -> "QubitMapping":
        """Independent copy of the mapping."""
        return QubitMapping(self._log_to_phys)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self._log_to_phys)

    def physical(self, logical: int) -> int:
        """Physical position of *logical* qubit."""
        return self._log_to_phys[logical]

    def logical(self, physical: int) -> int:
        """Logical qubit currently at *physical* position."""
        return self._phys_to_log[physical]

    @property
    def positions(self) -> list[int]:
        """The live logical->physical list: ``positions[q]`` is where
        logical qubit ``q`` sits now, updated in place by every swap.
        Read it; change the mapping only through :meth:`swap_physical`."""
        return self._log_to_phys

    def logical_to_physical(self) -> list[int]:
        """The full logical->physical permutation (copy)."""
        return list(self._log_to_phys)

    def physical_to_logical(self) -> list[int]:
        """The full physical->logical permutation (copy)."""
        return list(self._phys_to_log)

    def distance(self, logical_a: int, logical_b: int) -> int:
        """Physical distance (in ion spacings) between two logical qubits."""
        return abs(self._log_to_phys[logical_a] - self._log_to_phys[logical_b])

    def gate_distance(self, gate: Gate) -> int:
        """Physical span of a (logical) two-qubit gate under this mapping."""
        if not gate.is_two_qubit:
            raise CompilationError("gate_distance needs a two-qubit gate")
        a, b = gate.qubits
        return self.distance(a, b)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def swap_physical(self, position_a: int, position_b: int) -> None:
        """Exchange the logical qubits sitting at two physical positions."""
        logical_a = self._phys_to_log[position_a]
        logical_b = self._phys_to_log[position_b]
        self._phys_to_log[position_a] = logical_b
        self._phys_to_log[position_b] = logical_a
        self._log_to_phys[logical_a] = position_b
        self._log_to_phys[logical_b] = position_a

    def apply_to_gate(self, gate: Gate) -> Gate:
        """Return *gate* relabelled from logical qubits to physical positions."""
        return gate.remapped(self._log_to_phys)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QubitMapping):
            return NotImplemented
        return self._log_to_phys == other._log_to_phys

    def __repr__(self) -> str:
        return f"QubitMapping({self._log_to_phys})"


def extend_mapping(mapping: QubitMapping, num_physical: int) -> QubitMapping:
    """Extend a mapping over a larger physical register (extra qubits idle).

    Logical qubits keep their positions; the new positions are filled with
    fresh logical indices so the result stays a permutation.
    """
    if num_physical < mapping.num_qubits:
        raise CompilationError("cannot shrink a mapping")
    layout = mapping.logical_to_physical()
    used = set(layout)
    layout.extend(p for p in range(num_physical) if p not in used)
    return QubitMapping(layout)
