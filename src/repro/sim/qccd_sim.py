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

from dataclasses import dataclass, field

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
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    NoiseScenario,
    Timeline,
    chain_spectators,
    resolve_scenario,
    scenario_analytics,
)
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)

#: Rough durations of QCCD shuttling primitives in microseconds (same order
#: of magnitude as the timings used by Murali et al.).
SPLIT_TIME_US = 80.0
MERGE_TIME_US = 80.0
SEGMENT_HOP_TIME_US = 100.0
COOLING_TIME_US = 100.0


@dataclass
class QccdTrace:
    """Flattened replay of a QCCD program.

    The success fold (which counts the gates), the two-qubit gate
    count, the aggregate time, the transport count and heating state;
    both the analytic estimator and the stochastic sampler are built
    from this single replay.  ``timeline`` is the execution timeline
    (gates with their fidelity and trap as burst-coupling window, in
    event order, their spectators, and the transports), recorded only
    when the replay runs under a scenario, and ``telemetry`` carries
    the per-trap heating counters that survive every
    sympathetic-cooling event.
    """

    num_two_qubit: int = 0
    num_transports: int = 0
    execution_time_us: float = 0.0
    success: SuccessRateAccumulator = field(
        default_factory=SuccessRateAccumulator)
    final_quanta: dict[str, float] = field(default_factory=dict)
    timeline: Timeline | None = None
    telemetry: dict[str, float] = field(default_factory=dict)


class QccdSimulator:
    """Success-rate estimator for compiled QCCD programs."""

    def __init__(self, device: QccdDevice,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    def trace(self, program: QccdProgram,
              scenario: NoiseScenario | None = None) -> QccdTrace:
        """Replay *program*, folding per-gate fidelities under heating.

        Given a *scenario*, baseline included, the replay also records
        the execution ``timeline`` that :meth:`build_sampler` reads:
        crosstalk spectators are the other ions sharing the trap at gate
        time (with their in-chain distance to the nearest operand), the
        trap index is the burst-coupling window, and every transport is
        a shuttle.  QCCD's per-transport sympathetic cooling is
        *partial* (``qccd_cooling_factor``), so it never clears an active
        burst — windows span the whole program.  Without a scenario (an
        analytic baseline :meth:`run`) no timeline is recorded.
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
        timeline = None if scenario is None else Timeline.for_scenario(
            scenario)
        spectator_range = 0 if timeline is None else timeline.crosstalk_range
        cost_of = FidelityTable(self.params).cost
        # Gates that heating cannot reach cost the same everywhere: by name.
        resting: dict[str, GateCost] = {}
        trace = QccdTrace(timeline=timeline)
        fold = trace.success.fold
        execution_time = 0.0
        for run, event in program.runs():
            for gate, trap, distance in run:
                if len(gate.qubits) == 2:
                    trace.num_two_qubit += 1
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
            trace.num_transports += 1
            if timeline is not None:
                # The deposited burst heats the chain the ion merged
                # into.
                timeline.add_shuttle(trace.num_transports, event.dest_trap)
        trace.execution_time_us = execution_time
        trace.final_quanta = {f"trap_{t}_quanta": chain.quanta
                              for t, chain in chains.items()}
        trace.telemetry = {
            f"trap_{t}_qccd_ops": float(chain.num_qccd_ops)
            for t, chain in chains.items()
        }
        return trace

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

    def run(self, program: QccdProgram,
            *, circuit_name: str = "circuit",
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Replay *program*, accumulating heating and gate fidelities.

        Non-baseline *scenario* values adjust the success rate with the
        exact correlated-noise analytics (crosstalk inside each trap,
        leakage, per-transport heating bursts) and surface per-mechanism
        site telemetry in ``extras``.
        """
        scenario = resolve_scenario(scenario)
        if scenario.is_baseline:
            return self._result_from_trace(self.trace(program), circuit_name)
        trace = self.trace(program, scenario)
        analytics = scenario_analytics(trace.timeline.site_table(scenario),
                                       scenario)
        return analytics.apply_to(
            self._result_from_trace(trace, circuit_name))

    def _result_from_trace(self, trace: QccdTrace,
                           circuit_name: str) -> SimulationResult:
        accumulator = trace.success
        return SimulationResult(
            architecture="QCCD",
            circuit_name=circuit_name,
            success_rate=accumulator.success_rate,
            log10_success_rate=accumulator.log10_success_rate,
            execution_time_us=trace.execution_time_us,
            num_gates=accumulator.num_gates,
            num_two_qubit_gates=trace.num_two_qubit,
            num_moves=trace.num_transports,
            move_distance_um=0.0,
            average_gate_fidelity=accumulator.average_gate_fidelity,
            worst_gate_fidelity=accumulator.worst_gate_fidelity,
            extras={**trace.final_quanta, **trace.telemetry},
        )

    def build_sampler(self, program: QccdProgram, *,
                      circuit_name: str = "circuit",
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of one QCCD program.

        The site/gate/analytic derivation of :meth:`run_stochastic`
        without drawing a shot, for callers that sample one program
        repeatedly.
        """
        scenario = resolve_scenario(scenario)
        trace = self.trace(program, scenario)
        return StochasticSampler.from_timeline(
            trace.timeline, scenario,
            self._result_from_trace(trace, circuit_name),
            self.device.num_qubits,
        )

    def run_stochastic(self, program: QccdProgram,
                       *, shots: int, seed: int = 0, shot_offset: int = 0,
                       sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       circuit_name: str = "circuit",
                       scenario: NoiseScenario | str | None = None,
                       sampler: StochasticSampler | None = None,
                       ) -> ShotResult:
        """Monte-Carlo sample the program's noise, shot by shot.

        Same contract as :meth:`TiltSimulator.run_stochastic
        <repro.sim.tilt_sim.TiltSimulator.run_stochastic>`: per-trap
        heating fidelities become stochastic Pauli channels and every
        draw is a pure function of ``(seed, shot index)``.  Counts
        sampling uses the program's gates over the physical ion indices.
        Non-baseline *scenario* values add in-trap crosstalk, leakage
        and per-transport heating-burst sites.
        """
        if sampler is None:
            sampler = self.build_sampler(program, circuit_name=circuit_name,
                                         scenario=scenario)
        return sampler.run(shots, seed=seed, shot_offset=shot_offset,
                           sample_counts=sample_counts,
                           max_records=max_records)
