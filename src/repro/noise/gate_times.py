"""Gate-duration model.

Two-qubit amplitude-modulated (AM) gates follow Eq. 3 of the paper:
``tau(d) = 38 * d + 10`` microseconds, where *d* is the distance between the
two ions in units of ion spacings.  Single-qubit rotations take a fixed
(parameterisable) time, and a routing SWAP is executed as three XX gates of
the same span.
"""

from __future__ import annotations

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.parameters import NoiseParameters

#: Number of native XX gates a SWAP expands to (standard 3-CX construction).
XX_GATES_PER_SWAP = 3


def two_qubit_gate_time_us(distance: int, params: NoiseParameters) -> float:
    """Eq. 3: AM gate duration for ions *distance* spacings apart."""
    if distance < 1:
        raise SimulationError("two-qubit gate distance must be >= 1")
    return params.two_qubit_time_slope_us * distance + params.two_qubit_time_offset_us


def gate_time_us(gate: Gate, params: NoiseParameters) -> float:
    """Duration of *gate* on a trapped-ion device.

    Uses the physical span of the gate's qubit indices, so it must be called
    on gates expressed over **physical** qubits (i.e. after routing).
    Barriers take no time; measurements are charged the single-qubit time.
    """
    if gate.name == "barrier":
        return 0.0
    if gate.num_qubits == 1:
        return params.one_qubit_gate_time_us
    if gate.num_qubits == 2:
        base = two_qubit_gate_time_us(gate.span, params)
        if gate.name == "swap":
            return XX_GATES_PER_SWAP * base
        return base
    raise SimulationError(
        f"gate {gate.name!r} must be decomposed before timing "
        f"({gate.num_qubits} qubits)"
    )
