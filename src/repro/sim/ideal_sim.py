"""Ideal trapped-ion simulator.

The "Ideal TI" reference of Figure 8: every pair of ions can interact
directly (one laser pair per ion), so no SWAPs are inserted and the chain
never shuttles.  Gates still pay the distance-dependent AM gate time and its
background-heating error, and two-qubit gates still carry the residual error
epsilon, but the motional energy stays at zero.
"""

from __future__ import annotations

from repro.arch.ideal import IdealTrappedIonDevice
from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import lower_to_native
from repro.exceptions import SimulationError
from repro.noise.scenarios import Timeline
from repro.sim.base import Simulator
from repro.sim.result import GateReplay, SimulationResult


class IdealSimulator(Simulator):
    """Fidelity/time estimator for a fully connected trapped-ion device.

    The entry points take the logical circuit and ``native=``, its
    :func:`~repro.compiler.pipeline.lower_to_native` form, when the
    caller already has it.  Every gate sees zero motional quanta, and
    the ideal device never shuttles, so heating bursts are inert here;
    crosstalk (kicks on chain neighbours of each MS gate's operands)
    and leakage still apply under non-baseline scenarios.
    """

    device: IdealTrappedIonDevice

    def _simulate(self, circuit: Circuit, timeline: Timeline | None, *,
                  native: Circuit | None = None,
                  ) -> tuple[SimulationResult, int]:
        if circuit.num_qubits > self.device.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        if native is None:
            native = lower_to_native(circuit)
        return (self._result_from_native(circuit.name, native, timeline),
                native.num_qubits)

    def _result_from_native(self, name: str, native: Circuit,
                            timeline: Timeline | None = None,
                            ) -> SimulationResult:
        """Eq. 4 success, Eq. 5 time and gate counts of *native*, from one
        pass over its gates (every gate at zero motional quanta).

        Given a *timeline*, the pass also records the execution timeline:
        every ion has its own laser pair but all ions share one chain,
        recorded as every gate's chain, so crosstalk spectators are the
        chain neighbours of the gate's operands (by index distance);
        there are no shuttles and hence one burst window.
        """
        replay = GateReplay(self.params, timeline)
        execution_time = replay.critical_path_us(native, 0.0)
        if timeline is not None:
            timeline.close_block(0, range(native.num_qubits))
        return replay.result(
            architecture="Ideal TI",
            circuit_name=name,
            execution_time_us=execution_time,
            num_moves=0,
            move_distance_um=0.0,
        )
