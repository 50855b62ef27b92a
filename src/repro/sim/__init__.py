"""Simulators: exact statevector, noisy TILT / QCCD / Ideal-TI models, and
the shot-based stochastic (Monte-Carlo) noise subsystem."""

from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator, QccdTrace
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
    "QccdTrace",
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
