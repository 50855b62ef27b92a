"""Executable-program representation for TILT.

After routing and tape-movement scheduling, a program is a sequence of
*segments*: the head sits at one position, a batch of gates is executed,
then the whole chain shuttles to the next position.  The
:class:`ExecutableProgram` ties the routed (physical) circuit, the target
device and the segment schedule together; it is the object the TILT
simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.exceptions import SchedulingError


@dataclass(frozen=True)
class TapeSegment:
    """Gates executed while the head sits at one position.

    Attributes
    ----------
    position:
        Head position (index of the leftmost ion under the head).
    gate_indices:
        Indices into the routed circuit, in a dependency-respecting order.
    """

    position: int
    gate_indices: tuple[int, ...]

    @property
    def num_gates(self) -> int:
        return len(self.gate_indices)


@dataclass
class ExecutableProgram:
    """A fully scheduled TILT program."""

    circuit: Circuit
    device: TiltDevice
    segments: list[TapeSegment] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregate metrics (the #moves / dist columns of Table III)
    # ------------------------------------------------------------------
    @property
    def num_moves(self) -> int:
        """Number of tape movements (the initial alignment is free)."""
        return max(0, len(self.segments) - 1)

    @property
    def move_distance_ions(self) -> int:
        """Total tape travel in units of ion spacings."""
        positions = [segment.position for segment in self.segments]
        return sum(
            abs(b - a) for a, b in zip(positions, positions[1:])
        )

    @property
    def move_distance_um(self) -> float:
        """Total tape travel in micrometres."""
        return self.move_distance_ions * self.device.ion_spacing_um

    @property
    def num_scheduled_gates(self) -> int:
        """Total number of gates across all segments."""
        return sum(segment.num_gates for segment in self.segments)

    def positions(self) -> list[int]:
        """The head position of every segment, in execution order."""
        return [segment.position for segment in self.segments]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def gates_with_move_counts(self) -> Iterator[tuple[Gate, int]]:
        """Yield ``(gate, moves_before)`` for every gate in execution order.

        ``moves_before`` is the number of tape movements that happened before
        the gate runs — the ``m`` of Eq. 4.
        """
        for segment_index, segment in enumerate(self.segments):
            for gate_index in segment.gate_indices:
                yield self.circuit[gate_index], segment_index

    def gates_by_segment(self) -> Iterator[tuple[TapeSegment, list[Gate]]]:
        """Yield each segment together with its gates."""
        for segment in self.segments:
            yield segment, [self.circuit[i] for i in segment.gate_indices]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the schedule is complete, windowed and dependency-correct.

        One walk over the segments checks each scheduled index names a
        gate of the circuit, no more than once, under its segment's
        window, and after every earlier gate on the same qubits; a count
        at the end finds gates never scheduled.

        Raises
        ------
        SchedulingError
            If a gate index is out of range, a gate is missing or
            duplicated, lies outside its segment's window, or runs before
            one of its predecessors.
        """
        gates = self.circuit.gates
        num_gates = len(gates)
        seen = bytearray(num_gates)
        last_seen_on_qubit = [-1] * self.circuit.num_qubits
        scheduled = 0
        for segment in self.segments:
            window = self.device.window(segment.position)
            low, high = window.start, window.stop
            for gate_index in segment.gate_indices:
                if not 0 <= gate_index < num_gates:
                    raise SchedulingError(
                        f"segment at position {segment.position} names gate "
                        f"{gate_index}, but the circuit has {num_gates} gates"
                    )
                if seen[gate_index]:
                    raise SchedulingError(
                        "schedule does not cover every gate exactly once"
                    )
                seen[gate_index] = 1
                gate = gates[gate_index]
                qubits = gate.qubits
                for qubit in qubits:
                    if not low <= qubit < high:
                        raise SchedulingError(
                            f"gate {gate_index} ({gate}) outside window of "
                            f"position {segment.position}"
                        )
                for qubit in qubits:
                    previous = last_seen_on_qubit[qubit]
                    if previous > gate_index:
                        raise SchedulingError(
                            f"gate {gate_index} runs after later gate "
                            f"{previous} on qubit {qubit}"
                        )
                    last_seen_on_qubit[qubit] = gate_index
            scheduled += len(segment.gate_indices)
        if scheduled != num_gates:
            raise SchedulingError(
                "schedule does not cover every gate exactly once"
            )

    def summary(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"ExecutableProgram: {len(self.circuit)} gates in "
            f"{len(self.segments)} segments, {self.num_moves} moves, "
            f"{self.move_distance_um:.0f} um tape travel"
        )
