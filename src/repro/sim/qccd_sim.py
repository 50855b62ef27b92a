"""Noisy QCCD simulator.

Replays a :class:`~repro.compiler.qccd_compiler.QccdProgram` against the
same Eq. 4 fidelity model used for TILT, but with per-trap heating state:
every split/segment-hop/merge primitive deposits ``qccd_shuttle_quanta``
(about 2 quanta in Honeywell's published characterisation) into the affected
chain.  After each completed transport the affected chains are sympathetically
re-cooled by ``qccd_cooling_factor`` — QCCD traps are small and include
coolant ions, so (unlike a full-tape shuttle) their motional energy does not
grow without bound.  Ion extraction is modelled as a split at the ion's
position (the recorded ``swap_to_edge_gates`` are reported but carry no gate
error).  This is a simplified re-implementation of the Murali et al. [64]
QCCD cost model sufficient for the Figure 8 architecture comparison.
"""

from __future__ import annotations

from repro.arch.qccd import QccdDevice
from repro.compiler.qccd_compiler import QccdProgram
from repro.exceptions import SimulationError
from repro.noise.fidelity import (
    FidelityTable,
    GateCost,
    SuccessRateAccumulator,
)
from repro.noise.gate_times import two_qubit_gate_time_us
from repro.noise.heating import ChainHeatingState
from repro.noise.scenarios import Timeline, chain_spectators
from repro.sim.base import Simulator
from repro.sim.result import SimulationResult

#: Rough durations of QCCD shuttling primitives in microseconds (same order
#: of magnitude as the timings used by Murali et al.).
SPLIT_TIME_US = 80.0
MERGE_TIME_US = 80.0
SEGMENT_HOP_TIME_US = 100.0
COOLING_TIME_US = 100.0


class QccdSimulator(Simulator):
    """Success-rate estimator for compiled QCCD programs.

    The entry points take a compiled program and ``circuit_name=`` to
    name the result.  Under a scenario, crosstalk acts inside each trap,
    and every transport can start a heating burst.  Sampled counts are
    over the physical ion indices.
    """

    device: QccdDevice

    def _simulate(self, program: QccdProgram, timeline: Timeline | None, *,
                  circuit_name: str = "circuit",
                  ) -> tuple[SimulationResult, int]:
        return (self.trace(program, timeline, circuit_name),
                self.device.num_qubits)

    def trace(self, program: QccdProgram, timeline: Timeline | None = None,
              circuit_name: str = "circuit") -> SimulationResult:
        """Replay *program*, folding per-gate fidelities under heating.

        The success fold counts the gates; the result's extras hold each
        trap's final quanta and its transport-primitive count.  Given a
        *timeline*, the replay also records the execution timeline into
        it: every gate with its fidelity and its trap as burst-coupling
        window, in event order, and every transport as a shuttle.
        Crosstalk spectators are the other ions sharing the trap at gate
        time (with their in-chain distance to the nearest operand).
        QCCD's per-transport sympathetic cooling is *partial*
        (``qccd_cooling_factor``), so it never clears an active burst —
        windows span the whole program.
        """
        if program.device != self.device:
            raise SimulationError(
                f"program was compiled for {program.device!r}, not for "
                f"this simulator's {self.device!r}"
            )

        members = [list(trap) for trap in self.device.initial_layout()]
        chains = {
            trap: ChainHeatingState(self.params, max(1, len(ions)))
            for trap, ions in enumerate(members)
        }
        spectator_range = 0 if timeline is None else timeline.crosstalk_range
        cost_of = FidelityTable(self.params).cost
        # Gates that heating cannot reach cost the same everywhere: by name.
        resting: dict[str, GateCost] = {}
        success = SuccessRateAccumulator()
        fold = success.fold
        execution_time = 0.0
        num_two_qubit = num_transports = 0
        for run, event in program.runs():
            for gate, trap, distance in run:
                if len(gate.qubits) == 2:
                    num_two_qubit += 1
                    fidelity, log_term, _, _, _ = cost_of(
                        gate, chains[trap].quanta)
                    # Eq. 3 by in-chain distance; Eq. 4 by ion-id span.
                    duration = two_qubit_gate_time_us(
                        max(1, distance), self.params
                    )
                else:
                    cost = resting.get(gate.name)
                    if cost is None:
                        cost = resting[gate.name] = cost_of(gate, 0.0)
                    fidelity, log_term, duration, _, _ = cost
                if timeline is not None:
                    timeline.gates.append(gate)
                    timeline.fidelities.append(fidelity)
                    timeline.windows.append(trap)
                    if spectator_range and len(gate.qubits) == 2:
                        timeline.add_spectators(
                            len(timeline.gates) - 1,
                            self._trap_spectators(members[trap],
                                                  gate.qubits,
                                                  spectator_range),
                        )
                fold(fidelity, log_term)
                execution_time += duration
            if event is None:
                break
            execution_time += (event.splits * SPLIT_TIME_US
                               + event.hops * SEGMENT_HOP_TIME_US
                               + event.merges * MERGE_TIME_US)
            source = chains[event.source_trap]
            dest = chains[event.dest_trap]
            source.record_qccd_primitive(event.splits)
            dest.record_qccd_primitive(event.hops + event.merges)
            # Sympathetic cooling after the transport settles.
            source.apply_cooling()
            dest.apply_cooling()
            execution_time += COOLING_TIME_US
            # Membership only feeds crosstalk spectator lookup, so
            # the per-transport maintenance is skipped otherwise.
            if spectator_range and event.qubit in members[event.source_trap]:
                members[event.source_trap].remove(event.qubit)
                members[event.dest_trap].append(event.qubit)
            num_transports += 1
            if timeline is not None:
                # The deposited burst heats the chain the ion merged
                # into.
                timeline.add_shuttle(num_transports, event.dest_trap)
        extras = {f"trap_{t}_quanta": chain.quanta
                  for t, chain in chains.items()}
        extras.update((f"trap_{t}_qccd_ops", float(chain.num_qccd_ops))
                      for t, chain in chains.items())
        return SimulationResult(
            architecture="QCCD",
            circuit_name=circuit_name,
            success_rate=success.success_rate,
            log10_success_rate=success.log10_success_rate,
            execution_time_us=execution_time,
            num_gates=success.num_gates,
            num_two_qubit_gates=num_two_qubit,
            num_moves=num_transports,
            move_distance_um=0.0,
            average_gate_fidelity=success.average_gate_fidelity,
            worst_gate_fidelity=success.worst_gate_fidelity,
            extras=extras,
        )

    @staticmethod
    def _trap_spectators(ions: list[int], operands: tuple[int, ...],
                         max_distance: int) -> tuple[tuple[int, int], ...]:
        """Spectator ``(ion, distance)`` pairs within one trap's chain.

        Distance is measured along the trap's chain order (the membership
        list), mirroring how close a spectator physically sits to the MS
        gate's laser pair: the shared :func:`chain_spectators` runs in
        position space and the positions map back to ion ids.
        """
        operand_positions = [ions.index(q) for q in operands if q in ions]
        if not operand_positions:  # pragma: no cover - defensive
            return ()
        pairs = chain_spectators(operand_positions, range(len(ions)),
                                 max_distance)
        return tuple(sorted(
            (ions[position], distance) for position, distance in pairs
        ))
