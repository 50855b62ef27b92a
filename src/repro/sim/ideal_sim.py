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


class IdealSimulator:
    """Fidelity/time estimator for a fully connected trapped-ion device."""

    def __init__(self, device: IdealTrappedIonDevice,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    def _native(self, circuit: Circuit, native: Circuit | None) -> Circuit:
        if circuit.num_qubits > self.device.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        return lower_to_native(circuit) if native is None else native

    def run(self, circuit: Circuit, *,
            native: Circuit | None = None,
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Estimate success rate and run time of *circuit* on the ideal device.

        *native* is the circuit's
        :func:`~repro.compiler.pipeline.lower_to_native` form, when the
        caller already has it (every entry point takes it).  The ideal
        device never shuttles, so heating bursts are inert here;
        crosstalk (kicks on chain neighbours of each MS gate's operands)
        and leakage still apply under non-baseline *scenario* values.
        """
        scenario = resolve_scenario(scenario)
        native = self._native(circuit, native)
        if scenario.is_baseline:
            return self._result_from_native(circuit.name, native)
        timeline = Timeline.for_scenario(scenario)
        result = self._result_from_native(circuit.name, native, timeline)
        return scenario_analytics(timeline.site_table(scenario),
                                  scenario).apply_to(result)

    def _result_from_native(self, name: str, native: Circuit,
                            timeline: Timeline | None = None,
                            ) -> SimulationResult:
        """Eq. 4 success, Eq. 5 time and gate counts of *native*, from one
        pass over its gates (every gate at zero motional quanta).

        Given a *timeline*, the pass also records the execution timeline:
        every ion has its own laser pair but all ions share one chain, so
        crosstalk spectators are the chain neighbours of the gate's
        operands (by index distance); there are no shuttles and hence
        one burst window.
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

    def build_sampler(self, circuit: Circuit, *,
                      native: Circuit | None = None,
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of *circuit* on the ideal device.

        The site/gate/analytic derivation of :meth:`run_stochastic`
        without drawing a shot, for callers that sample one program
        repeatedly.
        """
        scenario = resolve_scenario(scenario)
        native = self._native(circuit, native)
        timeline = Timeline.for_scenario(scenario)
        analytic = self._result_from_native(circuit.name, native, timeline)
        return StochasticSampler.from_timeline(timeline, scenario, analytic,
                                               native.num_qubits)

    def run_stochastic(self, circuit: Circuit, *, shots: int, seed: int = 0,
                       shot_offset: int = 0, sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       native: Circuit | None = None,
                       scenario: NoiseScenario | str | None = None,
                       sampler: StochasticSampler | None = None,
                       ) -> ShotResult:
        """Monte-Carlo sample the ideal device's (heating-free) noise.

        Same contract as :meth:`TiltSimulator.run_stochastic
        <repro.sim.tilt_sim.TiltSimulator.run_stochastic>`; every gate
        sees zero motional quanta, matching :meth:`run`.  Non-baseline
        *scenario* values add crosstalk and leakage sites (bursts are
        inert — the ideal device never shuttles).
        """
        if sampler is None:
            sampler = self.build_sampler(circuit, native=native,
                                         scenario=scenario)
        return sampler.run(shots, seed=seed, shot_offset=shot_offset,
                           sample_counts=sample_counts,
                           max_records=max_records)
