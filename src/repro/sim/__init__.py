"""Simulators: exact statevector, noisy TILT / QCCD / Ideal-TI models, and
the shot-based stochastic (Monte-Carlo) noise subsystem.

The three noisy models share one front door,
:class:`repro.sim.base.Simulator`: ``run``, ``build_sampler`` and
``run_stochastic`` are written once over each model's single replay of
its program, which also records the execution timeline under a
scenario.
"""

from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.result import SimulationResult
from repro.sim.statevector import (
    MAX_STATEVECTOR_QUBITS,
    StatevectorSimulator,
    states_equal_up_to_global_phase,
)
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotRecord,
    ShotRecords,
    ShotResult,
    StochasticSampler,
    merge_shot_results,
    mix,
    wilson_interval,
)
from repro.sim.tilt_sim import TiltSimulator

__all__ = [
    "DEFAULT_MAX_RECORDS",
    "IdealSimulator",
    "MAX_STATEVECTOR_QUBITS",
    "QccdSimulator",
    "ShotRecord",
    "ShotRecords",
    "ShotResult",
    "SimulationResult",
    "StatevectorSimulator",
    "StochasticSampler",
    "TiltSimulator",
    "merge_shot_results",
    "mix",
    "states_equal_up_to_global_phase",
    "wilson_interval",
]
