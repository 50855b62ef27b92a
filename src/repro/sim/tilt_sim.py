"""Noisy TILT simulator (Section IV-E).

Replays an :class:`~repro.compiler.executable.ExecutableProgram` against the
heating-aware fidelity model: every gate in segment *m* (i.e. after *m* tape
moves) sees a chain with ``m * k`` motional quanta and its fidelity follows
Eq. 4; the program success rate is the product of all gate fidelities.  The
execution-time estimate follows Eq. 5: tape travel at the shuttling speed
plus, per segment, the critical path of gate durations.  Both come from one
:class:`~repro.sim.result.GateReplay` pass over the executed gates, which
also counts them.
"""

from __future__ import annotations

import dataclasses

from repro.arch.tilt import TiltDevice
from repro.compiler.executable import ExecutableProgram
from repro.compiler.pipeline import CompileResult
from repro.exceptions import SimulationError
from repro.noise.heating import quanta_after_moves
from repro.noise.scenarios import Timeline
from repro.sim.base import Simulator
from repro.sim.result import GateReplay, SimulationResult
from repro.sim.stochastic import ShotResult


class TiltSimulator(Simulator):
    """Success-rate and execution-time estimator for compiled TILT programs.

    The entry points take a scheduled program or a full compile result,
    and ``circuit_name=`` to name the result (the compiled circuit's
    name by default).  Under a scenario, crosstalk kicks the spectator
    ions under the head.  Sampled counts come back in logical qubit
    order from a :class:`CompileResult` (through its final mapping) and
    over the physical (routed) wires from a bare
    :class:`ExecutableProgram`, which has no mapping.
    """

    device: TiltDevice

    def _simulate(self, program: ExecutableProgram | CompileResult,
                  timeline: Timeline | None, *,
                  circuit_name: str | None = None,
                  ) -> tuple[SimulationResult, int]:
        if isinstance(program, CompileResult):
            name = circuit_name or program.source_circuit.name
            program = program.program
        else:
            name = circuit_name or program.circuit.name
        if program.device != self.device:
            raise SimulationError(
                f"program was scheduled for {program.device!r}, not for "
                f"this simulator's {self.device!r}"
            )
        return (self._replay(program, name, timeline),
                program.circuit.num_qubits)

    def _replay(self, program: ExecutableProgram, name: str,
                timeline: Timeline | None = None) -> SimulationResult:
        """Eq. 4 success, Eq. 5 time and gate counts of *program*, from
        one pass over its executed gates.

        Given a *timeline*, the pass also records the one samplers and
        scenario results are built from: every gate with its Eq. 4
        fidelity, its burst-coupling window and the spectator ions
        under the laser head (crosstalk targets), and every tape move
        between segments as a shuttle.  Windows follow the
        sympathetic-cooling intervals: moves ``1..interval`` share
        window 0, and so on — with cooling disabled the whole program is
        one window, so a burst persists to the end (Section II-B's
        unbounded tape heating).
        """
        params = self.params
        chain_length = self.device.num_qubits
        replay = GateReplay(params, timeline)
        gates = list(program.circuit)
        interval = params.tilt_cooling_interval_moves
        gate_time = 0.0
        for moves, segment in enumerate(program.segments):
            window = (moves - 1) // interval if interval > 0 and moves else 0
            if timeline is not None and moves:
                timeline.add_shuttle(moves, window)
            gate_time += replay.critical_path_us(
                map(gates.__getitem__, segment.gate_indices),
                quanta_after_moves(moves, chain_length, params),
            )
            if timeline is not None:
                timeline.close_block(window,
                                     self.device.window(segment.position))
        shuttle_time = (program.move_distance_um
                        / params.shuttle_speed_um_per_us)
        if interval > 0 and program.num_moves > 0:
            # A pause runs between the interval-th move and the next one
            # (matching quanta_after_moves), so a program ending exactly
            # on an interval boundary never pays for a pause it skipped.
            shuttle_time += (
                (program.num_moves - 1) // interval
            ) * params.tilt_cooling_time_us
        return replay.result(
            architecture=f"TILT head {self.device.head_size}",
            circuit_name=name,
            execution_time_us=shuttle_time + gate_time,
            num_moves=program.num_moves,
            move_distance_um=program.move_distance_um,
            extras={
                "final_quanta": quanta_after_moves(
                    program.num_moves, chain_length, params
                ),
                "num_segments": float(len(program.segments)),
            },
        )

    def _relabel(self, program: ExecutableProgram | CompileResult,
                 shot: ShotResult, num_qubits: int | None) -> ShotResult:
        if not isinstance(program, CompileResult) or shot.counts is None:
            return shot
        assert num_qubits is not None
        physical_of = [program.final_mapping.physical(logical)
                       for logical in range(num_qubits)]
        relabelled: dict[str, int] = {}
        for bits, count in shot.counts.items():
            logical_bits = "".join(bits[p] for p in physical_of)
            relabelled[logical_bits] = relabelled.get(logical_bits, 0) + count
        return dataclasses.replace(shot, counts=relabelled)
