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
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    NoiseScenario,
    Timeline,
    resolve_scenario,
    scenario_analytics,
)
from repro.sim.result import GateReplay, SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)


class TiltSimulator:
    """Success-rate and execution-time estimator for compiled TILT programs."""

    def __init__(self, device: TiltDevice,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _resolve(self, program: ExecutableProgram | CompileResult,
                 circuit_name: str | None) -> tuple[ExecutableProgram, str]:
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
        return program, name

    def run(self, program: ExecutableProgram | CompileResult,
            *, circuit_name: str | None = None,
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Simulate a scheduled program (or a full compile result).

        *scenario* selects a correlated-noise scenario (a registered name
        or a :class:`~repro.noise.scenarios.NoiseScenario`); ``None`` or
        ``"baseline"`` reproduces the paper's independent-error model
        exactly.  Non-baseline scenarios adjust the success rate with the
        exact correlated-noise analytics and surface per-mechanism site
        telemetry in ``extras``.
        """
        program, name = self._resolve(program, circuit_name)
        scenario = resolve_scenario(scenario)
        if scenario.is_baseline:
            return self._replay(program, name)
        timeline = Timeline.for_scenario(scenario)
        base = self._replay(program, name, timeline)
        return scenario_analytics(timeline.site_table(scenario),
                                  scenario).apply_to(base)

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

    # ------------------------------------------------------------------
    # Stochastic (shot-based) simulation
    # ------------------------------------------------------------------
    def build_sampler(self, program: ExecutableProgram | CompileResult,
                      *, circuit_name: str | None = None,
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of one executed program.

        Everything :meth:`run_stochastic` derives from the program —
        error sites, the executed gate sequence, the analytic reference
        — without drawing a single shot, so callers that sample the same
        program repeatedly (shard fan-outs, throughput benchmarks) can
        reuse one sampler across ``run`` calls.
        """
        program, name = self._resolve(program, circuit_name)
        scenario = resolve_scenario(scenario)
        timeline = Timeline.for_scenario(scenario)
        analytic = self._replay(program, name, timeline)
        return StochasticSampler.from_timeline(
            timeline, scenario, analytic, program.circuit.num_qubits,
        )

    def run_stochastic(self, program: ExecutableProgram | CompileResult,
                       *, shots: int, seed: int = 0, shot_offset: int = 0,
                       sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       circuit_name: str | None = None,
                       scenario: NoiseScenario | str | None = None,
                       sampler: StochasticSampler | None = None,
                       ) -> ShotResult:
        """Monte-Carlo sample the program's Eq. 4 noise, shot by shot.

        Every per-gate fidelity becomes a stochastic Pauli/readout-flip
        channel (see :mod:`repro.noise.channels`); the returned
        :class:`ShotResult` carries the counts histogram (when
        ``sample_counts`` is on), per-shot error records and the Wilson
        confidence interval of the sampled success rate.  Shots
        ``[shot_offset, shot_offset + shots)`` of the run rooted at
        *seed* are drawn, so shards merged with
        :func:`~repro.sim.stochastic.merge_shot_results` are bit-identical
        to one serial pass.

        When a :class:`CompileResult` is passed, sampled counts are
        relabelled back to *logical* qubit order through its final
        mapping; a bare :class:`ExecutableProgram` (no mapping available)
        yields counts over the physical (routed) wires.

        *scenario* switches on the correlated-noise mechanisms (see
        :mod:`repro.noise.scenarios`): crosstalk kicks on the spectator
        ions under the head, leakage out of the computational subspace
        and shuttle-induced heating bursts.  ``None`` / ``"baseline"``
        keeps the independent-error sampling unchanged.  A caller that
        already holds this program's :meth:`build_sampler` under the
        same *scenario* passes it as *sampler*; otherwise it is built.
        """
        mapping = (program.final_mapping
                   if isinstance(program, CompileResult) else None)
        if sampler is None:
            sampler = self.build_sampler(program, circuit_name=circuit_name,
                                         scenario=scenario)
        result = sampler.run(shots, seed=seed, shot_offset=shot_offset,
                             sample_counts=sample_counts,
                             max_records=max_records)
        if mapping is not None and result.counts is not None:
            assert sampler.num_qubits is not None
            physical_of = [mapping.physical(logical)
                           for logical in range(sampler.num_qubits)]
            relabelled: dict[str, int] = {}
            for bits, count in result.counts.items():
                logical_bits = "".join(bits[p] for p in physical_of)
                relabelled[logical_bits] = (
                    relabelled.get(logical_bits, 0) + count
                )
            result = dataclasses.replace(result, counts=relabelled)
        return result
