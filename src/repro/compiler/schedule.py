"""Tape movement scheduling — Algorithm 2 of the paper.

Given a routed circuit (every two-qubit gate fits under the laser head), the
scheduler repeatedly picks the head position at which the largest number of
dependency-ready gates can execute, executes them, and shuttles the tape to
the next chosen position.  Minimising the number of tape movements directly
improves the program success rate because every shuttle heats the chain
(Section IV-D).

Scoring a head position needs no trial run.  The greedy closure at
position ``p`` (every gate that can run in the window ``[p, p + h - 1]``
of an ``h``-laser head) runs a gate exactly when the window holds the
gate and all of its not-yet-executed ancestors.  With ``L`` and ``H`` the
lowest and highest qubit over that set, the gate therefore counts toward
exactly the positions ``max(0, H - h + 1) … min(last, L)``.
:meth:`~repro.circuits.dag.FrontierTracker.window_extents` returns
``(L, H)`` for every gate some window can run (a gate whose set is wider
than the head, and all of its descendants, count nowhere), reading each
gate's lowest and highest qubit from lists the tracker builds once, so
one difference-array sum over those ranges gives every position's
closure size.  The scheduler picks the position by the ``(-count,
distance, position)`` key of Algorithm 2 and runs that window's closure
once, in place
(:meth:`~repro.circuits.dag.FrontierTracker.run_closure`); its execution
order is the segment's gate order.  The test suite checks the chosen
segments against the per-position scan of closures found without
touching the tracker and replayed gate by gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.dag import FrontierTracker
from repro.compiler.executable import ExecutableProgram, TapeSegment
from repro.exceptions import SchedulingError


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable knobs of the tape-movement scheduler.

    Attributes
    ----------
    initial_position:
        Head position before the first segment; ``None`` lets the scheduler
        choose freely (the first alignment is not counted as a move).
    prefer_near_moves:
        Tie-break equal scores by distance from the current position, so the
        tape travels as little as possible when it must move anyway.
    """

    initial_position: int | None = None
    prefer_near_moves: bool = True


class TapeScheduler:
    """Greedy max-executable-gates scheduler (Algorithm 2)."""

    def __init__(self, device: TiltDevice,
                 config: SchedulerConfig | None = None) -> None:
        self.device = device
        self.config = config or SchedulerConfig()
        if (self.config.initial_position is not None
                and self.config.initial_position not in device.head_positions()):
            raise SchedulingError(
                f"initial position {self.config.initial_position} invalid for "
                f"{device.describe()}"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, circuit: Circuit) -> ExecutableProgram:
        """Schedule *circuit* into tape segments covering every gate."""
        device = self.device
        if circuit.num_qubits > device.num_qubits:
            raise SchedulingError(
                f"circuit has {circuit.num_qubits} qubits but the device has "
                f"{device.num_qubits}"
            )
        tracker = FrontierTracker(circuit)
        spans = tracker.spans()
        max_span = device.max_gate_span
        if max(spans, default=0) > max_span:
            gate = next(gate for gate, span in zip(circuit, spans)
                        if span > max_span)
            if gate.name == "barrier":
                raise SchedulingError(
                    "full-width barriers cannot be scheduled; strip them first"
                )
            raise SchedulingError(
                f"gate {gate} does not fit under the head; route first"
            )

        head_size = device.head_size
        segments: list[TapeSegment] = []
        current_position = self.config.initial_position
        while not tracker.is_done():
            position = self._choose_position(tracker, current_position)
            executable = tracker.run_closure(position, position + head_size - 1)
            if not executable:
                raise SchedulingError(
                    "scheduler stalled: no executable gate at any head position"
                )
            segments.append(TapeSegment(position, tuple(executable)))
            current_position = position

        program = ExecutableProgram(circuit, device, segments)
        program.validate()
        return program

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _choose_position(self, tracker: FrontierTracker,
                         current_position: int | None) -> int:
        """The head position Algorithm 2 moves to next.

        Every position's closure size comes from one difference-array sum
        over the tracker's window extents; the winner maximises the count,
        then (with ``prefer_near_moves``) minimises travel, then is the
        leftmost.
        """
        head_size = self.device.head_size
        last_position = self.device.num_head_positions - 1
        deltas = [0] * (last_position + 2)
        for low, high in tracker.window_extents(head_size):
            first = high - head_size + 1
            deltas[first if first > 0 else 0] += 1
            deltas[(low if low < last_position else last_position) + 1] -= 1
        counts = list(accumulate(deltas[:-1]))
        best = max(counts)
        tied = [p for p, count in enumerate(counts) if count == best]
        if current_position is None or not self.config.prefer_near_moves:
            return tied[0]
        return min(tied, key=lambda p: (abs(p - current_position), p))


def schedule_tape_moves(circuit: Circuit, device: TiltDevice,
                        config: SchedulerConfig | None = None) -> ExecutableProgram:
    """Convenience wrapper around :class:`TapeScheduler`."""
    return TapeScheduler(device, config).schedule(circuit)
