"""The front door shared by the TILT, ideal and QCCD simulators.

A :class:`Simulator` turns one replay of a program into each of the
three things callers ask for: the analytic :class:`SimulationResult`
(:meth:`~Simulator.run`, adjusted by the exact correlated-noise
analytics under a scenario), the :class:`StochasticSampler` of the
replay's timeline (:meth:`~Simulator.build_sampler`) and a sampled
:class:`ShotResult` (:meth:`~Simulator.run_stochastic`).  A subclass
supplies the replay (:meth:`~Simulator._simulate`, which also checks
that the program fits the device) and, where sampled counts need it,
their relabelling (:meth:`~Simulator._relabel`).  Keyword options of the
entry points other than the scenario and the sampling arguments
(``circuit_name=``, ``native=``) go to the replay.
"""

from __future__ import annotations

from typing import Any

from repro.arch.device import DeviceSpec
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    NoiseScenario,
    Timeline,
    resolve_scenario,
    scenario_analytics,
)
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)


class Simulator:
    """Analytic results, samplers and sampled results of one device."""

    def __init__(self, device: DeviceSpec,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    def _simulate(self, program: Any, timeline: Timeline | None,
                  **options: Any) -> tuple[SimulationResult, int]:
        """The baseline result of one replay of *program* and the width
        of the register it runs on.

        Given a *timeline*, the replay also records the execution
        timeline into it.  Raises
        :class:`~repro.exceptions.SimulationError` when *program* does
        not fit this simulator's device.
        """
        raise NotImplementedError

    def _relabel(self, program: Any, shot: ShotResult,
                 num_qubits: int | None) -> ShotResult:
        """*shot* with its counts in the order callers read them; as
        sampled unless a subclass knows better."""
        return shot

    def run(self, program: Any, *,
            scenario: NoiseScenario | str | None = None,
            **options: Any) -> SimulationResult:
        """Success rate and run time of *program* on this device.

        *scenario* selects a correlated-noise scenario (a registered name
        or a :class:`~repro.noise.scenarios.NoiseScenario`); ``None`` or
        ``"baseline"`` reproduces the paper's independent-error model
        exactly, without recording a timeline.  Non-baseline scenarios
        adjust the success rate with the exact correlated-noise
        analytics and surface per-mechanism site telemetry in
        ``extras``.
        """
        scenario = resolve_scenario(scenario)
        if scenario.is_baseline:
            return self._simulate(program, None, **options)[0]
        timeline = Timeline.for_scenario(scenario)
        result, _ = self._simulate(program, timeline, **options)
        return scenario_analytics(timeline.site_table(scenario),
                                  scenario).apply_to(result)

    def build_sampler(self, program: Any, *,
                      scenario: NoiseScenario | str | None = None,
                      **options: Any) -> StochasticSampler:
        """The :class:`StochasticSampler` of *program*.

        Everything :meth:`run_stochastic` derives from the program —
        error sites, the executed gate sequence, the analytic reference
        — without drawing a single shot, so callers that sample the same
        program repeatedly (shard fan-outs, throughput benchmarks) can
        reuse one sampler across ``run`` calls.
        """
        scenario = resolve_scenario(scenario)
        timeline = Timeline.for_scenario(scenario)
        analytic, num_qubits = self._simulate(program, timeline, **options)
        return StochasticSampler.from_timeline(timeline, scenario, analytic,
                                               num_qubits)

    def run_stochastic(self, program: Any, *, shots: int, seed: int = 0,
                       shot_offset: int = 0, sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       scenario: NoiseScenario | str | None = None,
                       sampler: StochasticSampler | None = None,
                       **options: Any) -> ShotResult:
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

        *scenario* switches on the correlated-noise mechanisms (see
        :mod:`repro.noise.scenarios`): crosstalk kicks on spectator
        ions, leakage out of the computational subspace and
        shuttle-induced heating bursts.  ``None`` / ``"baseline"`` keeps
        the independent-error sampling unchanged.  A caller that already
        holds this program's :meth:`build_sampler` under the same
        *scenario* passes it as *sampler*; otherwise it is built.
        """
        if sampler is None:
            sampler = self.build_sampler(program, scenario=scenario,
                                         **options)
        shot = sampler.run(shots, seed=seed, shot_offset=shot_offset,
                           sample_counts=sample_counts,
                           max_records=max_records)
        return self._relabel(program, shot, sampler.num_qubits)
