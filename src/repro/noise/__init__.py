"""Trapped-ion noise model: gate times (Eq. 3), heating, fidelity (Eq. 4),
the stochastic channel interpretation used for shot sampling, and the
correlated-noise scenario registry (crosstalk / leakage / heating bursts)."""

from repro.noise.channels import (
    LABEL_TABLE,
    ErrorSite,
    pauli_gates,
)
from repro.noise.scenarios import (
    NoiseScenario,
    compose_scenarios,
    expected_log10_success,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_analytics,
    scenario_names,
)
from repro.noise.fidelity import (
    SuccessRateAccumulator,
    gate_fidelity,
    measurement_fidelity,
    one_qubit_fidelity,
    two_qubit_fidelity,
)
from repro.noise.gate_times import (
    XX_GATES_PER_SWAP,
    gate_time_us,
    two_qubit_gate_time_us,
)
from repro.noise.heating import ChainHeatingState, quanta_after_moves
from repro.noise.parameters import NoiseParameters

__all__ = [
    "ChainHeatingState",
    "ErrorSite",
    "LABEL_TABLE",
    "NoiseParameters",
    "NoiseScenario",
    "SuccessRateAccumulator",
    "XX_GATES_PER_SWAP",
    "compose_scenarios",
    "expected_log10_success",
    "gate_fidelity",
    "gate_time_us",
    "get_scenario",
    "measurement_fidelity",
    "one_qubit_fidelity",
    "pauli_gates",
    "quanta_after_moves",
    "register_scenario",
    "resolve_scenario",
    "scenario_analytics",
    "scenario_names",
    "two_qubit_fidelity",
    "two_qubit_gate_time_us",
]
