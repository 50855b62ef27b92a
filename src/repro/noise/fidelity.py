"""Gate-fidelity model and success-rate accumulation.

Implements Eq. 4 of the paper:

    F_m = 1 - Gamma * tau + (1 - (1 + epsilon) ** (2 m k + 1))

where ``m k`` is the motional energy (in quanta) of the chain at the time the
gate runs, ``tau`` is the gate duration (Eq. 3), ``Gamma`` is the background
heating rate and ``epsilon`` the residual-entanglement error.  Program
success rate is the product of all gate fidelities; because large circuits
reach values far below double-precision underflow (QFT-64 is ~1e-40 in the
paper), the accumulator works in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.gate_times import (
    XX_GATES_PER_SWAP,
    gate_time_us,
    two_qubit_gate_time_us,
)
from repro.noise.parameters import NoiseParameters


def two_qubit_fidelity(gate_time_microseconds: float, motional_quanta: float,
                       params: NoiseParameters) -> float:
    """Eq. 4 fidelity of one two-qubit gate.

    Parameters
    ----------
    gate_time_microseconds:
        tau — AM gate duration, from Eq. 3.
    motional_quanta:
        The chain's accumulated motional energy (``m * k`` for TILT after
        ``m`` moves, or the per-trap accumulator for QCCD).
    """
    if gate_time_microseconds < 0:
        raise SimulationError("gate time cannot be negative")
    if motional_quanta < 0:
        raise SimulationError("motional quanta cannot be negative")
    gamma = params.background_heating_rate_per_us
    epsilon = params.residual_gate_error
    exponent = 2.0 * motional_quanta + 1.0
    try:
        residual = math.pow(1.0 + epsilon, exponent) - 1.0
    except OverflowError:
        residual = math.inf
    fidelity = 1.0 - gamma * gate_time_microseconds - residual
    return min(1.0, max(0.0, fidelity))


def one_qubit_fidelity(params: NoiseParameters) -> float:
    """Fidelity of a single-qubit rotation (independent of heating)."""
    return min(1.0, max(0.0, 1.0 - params.one_qubit_gate_error))


def measurement_fidelity(params: NoiseParameters) -> float:
    """Fidelity of a single-qubit readout."""
    return min(1.0, max(0.0, 1.0 - params.measurement_error))


def gate_fidelity(gate: Gate, motional_quanta: float,
                  params: NoiseParameters) -> float:
    """Fidelity of an arbitrary (physical) gate under the current heating.

    A SWAP is charged as three XX gates of the same span.  Barriers are free.
    """
    if gate.name == "barrier":
        return 1.0
    if gate.name == "measure":
        return measurement_fidelity(params)
    if gate.num_qubits == 1:
        return one_qubit_fidelity(params)
    if gate.num_qubits == 2:
        single = two_qubit_fidelity(
            two_qubit_gate_time_us(gate.span, params), motional_quanta, params
        )
        if gate.name == "swap":
            return single**XX_GATES_PER_SWAP
        return single
    raise SimulationError(
        f"gate {gate.name!r} must be decomposed before fidelity evaluation"
    )


#: What one gate adds to each total of an analytic replay: its Eq. 4
#: fidelity, that fidelity's :meth:`SuccessRateAccumulator.log_term`, its
#: Eq. 3 duration, its gate count (0 for a barrier, else 1) and its
#: two-qubit gate count.  A plain tuple, because replays unpack one per
#: executed gate.
GateCost = tuple[float, float, float, int, int]


class FidelityTable:
    """The :data:`GateCost` of every gate of one replay, each evaluated
    once per distinct gate.

    Eq. 4, its log and Eq. 3 read only the gate's name, its span and,
    for a two-qubit gate, the chain's motional quanta, so gates that
    agree on those share one evaluation.  A simulator builds one table
    per call: nothing outlives the replay.
    """

    def __init__(self, params: NoiseParameters) -> None:
        self.params = params
        self._costs: dict[tuple[str, int, float], GateCost] = {}

    def cost(self, gate: Gate, motional_quanta: float) -> GateCost:
        """The costs of *gate* under *motional_quanta*."""
        qubits = gate.qubits
        if len(qubits) != 2:
            motional_quanta = 0.0  # heating reaches two-qubit gates only
        # The span of a one- or two-qubit gate, without the property
        # call; a barrier's costs ignore it and wider gates raise.
        key = (gate.name, abs(qubits[0] - qubits[-1]), motional_quanta)
        cost = self._costs.get(key)
        if cost is None:
            fidelity = gate_fidelity(gate, motional_quanta, self.params)
            cost = self._costs[key] = (
                fidelity,
                SuccessRateAccumulator.log_term(fidelity),
                gate_time_us(gate, self.params),
                int(gate.name != "barrier"),
                int(gate.is_two_qubit),
            )
        return cost

    def fidelity(self, gate: Gate, motional_quanta: float) -> float:
        """:func:`gate_fidelity` of *gate* under *motional_quanta*."""
        return self.cost(gate, motional_quanta)[0]


@dataclass
class SuccessRateAccumulator:
    """Multiplies per-gate fidelities in log space.

    ``success_rate`` is ``exp(sum of log fidelities)``, the logs added
    gate by gate in execution order; if any gate has zero fidelity the
    success rate is exactly zero.  A replay takes each distinct
    fidelity's :meth:`log_term` from its :class:`FidelityTable` and
    passes every gate to :meth:`fold`; :meth:`add` does both for one
    gate.
    """

    log_fidelity: float = 0.0
    num_gates: int = 0
    hit_zero: bool = False
    _worst: float = field(default=1.0, repr=False)

    @staticmethod
    def log_term(fidelity: float) -> float:
        """What a gate of *fidelity* adds to the log-sum: its log, or 0.0
        for a zero fidelity (which :meth:`fold` records as ``hit_zero``)."""
        if not 0.0 <= fidelity <= 1.0:
            raise SimulationError(f"fidelity {fidelity} outside [0, 1]")
        if fidelity == 0.0:
            return 0.0
        return math.log(fidelity)

    def fold(self, fidelity: float, log_term: float) -> None:
        """Fold the next gate, given its fidelity and :meth:`log_term`."""
        self.log_fidelity += log_term
        self.num_gates += 1
        if fidelity < self._worst:
            self._worst = fidelity
            if fidelity == 0.0:
                self.hit_zero = True

    def add(self, fidelity: float) -> None:
        """Fold one gate fidelity into the product."""
        self.fold(fidelity, self.log_term(fidelity))

    @property
    def success_rate(self) -> float:
        """Product of all fidelities added so far (may underflow to 0.0)."""
        if self.hit_zero:
            return 0.0
        return math.exp(self.log_fidelity)

    @property
    def log10_success_rate(self) -> float:
        """log10 of the success rate (``-inf`` if any fidelity was zero)."""
        if self.hit_zero:
            return float("-inf")
        return self.log_fidelity / math.log(10.0)

    @property
    def worst_gate_fidelity(self) -> float:
        """The smallest single-gate fidelity seen."""
        return self._worst

    @property
    def average_gate_fidelity(self) -> float:
        """Geometric mean of the fidelities added so far."""
        if self.num_gates == 0:
            return 1.0
        if self.hit_zero:
            return 0.0
        return math.exp(self.log_fidelity / self.num_gates)
