"""Simulation result containers and the analytic replay that fills them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.fidelity import (
    FidelityTable,
    GateCost,
    SuccessRateAccumulator,
)
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import Timeline


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one noisy architectural simulation.

    Attributes
    ----------
    architecture:
        Human-readable configuration label (e.g. ``"TILT head 16"``).
    circuit_name:
        Name of the simulated workload.
    success_rate:
        Estimated program success probability (product of gate fidelities).
        May underflow to 0.0 for very deep circuits; use
        ``log10_success_rate`` for plotting.
    log10_success_rate:
        log10 of the success rate, computed without underflow.
    execution_time_us:
        Estimated wall-clock execution time (Eq. 5) in microseconds.
    num_gates, num_two_qubit_gates:
        Size of the executed circuit (after routing, where applicable).
    num_moves:
        Tape moves (TILT) or ion transports (QCCD); 0 for the ideal device.
    move_distance_um:
        Total shuttling travel in micrometres (TILT only; 0 otherwise).
    average_gate_fidelity, worst_gate_fidelity:
        Geometric mean / minimum of the per-gate fidelities.
    extras:
        Architecture-specific details (e.g. per-trap heating for QCCD).
    """

    architecture: str
    circuit_name: str
    success_rate: float
    log10_success_rate: float
    execution_time_us: float
    num_gates: int
    num_two_qubit_gates: int
    num_moves: int
    move_distance_um: float
    average_gate_fidelity: float
    worst_gate_fidelity: float
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def execution_time_s(self) -> float:
        """Execution time in seconds."""
        return self.execution_time_us * 1e-6

    def success_ratio_over(self, other: "SimulationResult") -> float:
        """How many times more likely this run is to succeed than *other*.

        Computed in log space so it stays finite even when both success
        rates underflow ordinary floats.

        Raises
        ------
        SimulationError
            If *other* has a zero or otherwise degenerate (NaN) success
            rate — the ratio over an impossible run is undefined.
        """
        denominator = other.log10_success_rate
        if math.isnan(denominator) or denominator == float("-inf"):
            raise SimulationError(
                f"cannot compute a success ratio over "
                f"{other.architecture!r}/{other.circuit_name!r}: its "
                f"success rate is zero (log10={denominator})"
            )
        if math.isnan(self.log10_success_rate):
            raise SimulationError("this result's success rate is degenerate")
        try:
            return math.pow(10.0, self.log10_success_rate - denominator)
        except OverflowError:
            return float("inf")

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.architecture:<16} {self.circuit_name:<8} "
            f"success={self.success_rate:.3e} "
            f"(log10={self.log10_success_rate:.2f}) "
            f"time={self.execution_time_s:.3f}s moves={self.num_moves}"
        )


class GateReplay:
    """One pass over the gates a simulator executes, in execution order.

    Each gate's :data:`~repro.noise.fidelity.GateCost` comes from the
    replay's :class:`~repro.noise.fidelity.FidelityTable`, once per
    distinct gate; the same pass folds the success rate into
    ``success``, counts the gates and, per :meth:`critical_path_us`
    call, the Eq. 5 per-qubit critical path.  Given a
    :class:`~repro.noise.scenarios.Timeline`, the same pass appends every
    gate and its fidelity to it; the caller closes each block of gates
    with its window (:meth:`Timeline.close_block
    <repro.noise.scenarios.Timeline.close_block>`).
    """

    def __init__(self, params: NoiseParameters,
                 timeline: Timeline | None = None) -> None:
        self.table = FidelityTable(params)
        self.success = SuccessRateAccumulator()
        self.num_gates = 0
        self.num_two_qubit_gates = 0
        self.timeline = timeline

    def critical_path_us(self, gates: Iterable[Gate], quanta: float) -> float:
        """Fold *gates*, run in order under *quanta* motional quanta, and
        return their Eq. 5 critical path.

        A gate starts when the last of its qubits is free, so a barrier
        synchronises its qubits.  TILT replays each tape segment, the
        ideal device its whole circuit.
        """
        table = self.table
        fold = self.success.fold
        # Every gate here runs at one quanta, so the table's key
        # (name, span, quanta) narrows to (name, span).
        costs: dict[tuple[str, int], GateCost] = {}
        finish_at: dict[int, float] = {}
        path = 0.0
        num_gates = num_two_qubit_gates = 0
        if self.timeline is not None:
            # recording wraps the fold, so a replay without a timeline
            # pays nothing per gate for it
            gates = list(gates)
            self.timeline.gates.extend(gates)
            record = self.timeline.fidelities.append

            def fold(fidelity: float, log_term: float,
                     fold_one=fold) -> None:
                record(fidelity)
                fold_one(fidelity, log_term)

        for gate in gates:
            qubits = gate.qubits
            key = (gate.name, abs(qubits[0] - qubits[-1]))
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = table.cost(gate, quanta)
            fidelity, log_term, duration, counted, two_qubit = cost
            fold(fidelity, log_term)
            num_gates += counted
            num_two_qubit_gates += two_qubit
            if len(qubits) == 1:
                end = finish_at.get(qubits[0], 0.0) + duration
                finish_at[qubits[0]] = end
            elif len(qubits) == 2:
                first, second = qubits
                end = max(finish_at.get(first, 0.0),
                          finish_at.get(second, 0.0)) + duration
                finish_at[first] = finish_at[second] = end
            else:
                end = max([finish_at.get(q, 0.0) for q in qubits]) + duration
                for qubit in qubits:
                    finish_at[qubit] = end
            if end > path:
                path = end
        self.num_gates += num_gates
        self.num_two_qubit_gates += num_two_qubit_gates
        return path

    def result(self, **fields) -> SimulationResult:
        """The replay's :class:`SimulationResult`; *fields* gives the
        rest (labels, execution time, moves, extras)."""
        success = self.success
        return SimulationResult(
            success_rate=success.success_rate,
            log10_success_rate=success.log10_success_rate,
            num_gates=self.num_gates,
            num_two_qubit_gates=self.num_two_qubit_gates,
            average_gate_fidelity=success.average_gate_fidelity,
            worst_gate_fidelity=success.worst_gate_fidelity,
            **fields,
        )
