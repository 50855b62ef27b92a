"""Micro-benchmarks of the individual compiler passes and simulators.

These are pure performance benchmarks (no figure attached): they track the
cost of decomposition, routing, scheduling, and the three noisy simulators
on the QFT workload so performance regressions in the toolflow are caught.
"""

from __future__ import annotations

from repro.analysis import experiments
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.compiler.pipeline import LinQCompiler, lower_to_native
from repro.compiler.qccd_compiler import QccdCompiler
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.statevector import StatevectorSimulator
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.qft import qft_workload
from repro.workloads.suite import build_workload


def _bench_analytic_run(benchmark, simulator, *args, **kwargs):
    """Time one simulator's analytic ``run`` alone: the caller compiles
    or lowers its input before, outside the timer."""
    # repro-lint: disable=RPR002 -- micro-benchmark of the raw simulator hot path; the engine's execute_spec would fold compile time and cache bookkeeping into the measurement
    return benchmark(lambda: simulator.run(*args, **kwargs))


def test_native_decomposition(benchmark, scale):
    """The production lowering: barrier strip, native rewrite and fused
    rotations in one streaming pass."""
    circuit = build_workload("QFT", scale)
    native = benchmark(lambda: lower_to_native(circuit))
    assert native.num_two_qubit_gates() > 0


def test_tilt_simulation(benchmark, scale, noise):
    circuit = build_workload("QFT", scale)
    device = experiments.device_for(scale, "QFT")
    compiled = LinQCompiler(device).compile(circuit)
    simulator = TiltSimulator(device, noise)
    result = _bench_analytic_run(benchmark, simulator, compiled)
    assert 0.0 <= result.success_rate <= 1.0


def test_ideal_simulation(benchmark, scale, noise):
    circuit = build_workload("QFT", scale)
    native = lower_to_native(circuit)
    simulator = IdealSimulator(IdealTrappedIonDevice(circuit.num_qubits),
                               noise)
    result = _bench_analytic_run(benchmark, simulator, circuit,
                                 native=native)
    assert 0.0 <= result.success_rate <= 1.0


def test_qccd_compile(benchmark, scale):
    """The QCCD compiler alone: trap assignment and shuttle insertion on
    a circuit lowered outside the timer."""
    circuit = build_workload("QFT", scale)
    native = lower_to_native(circuit)
    capacity = 17 if scale == "paper" else 5
    device = QccdDevice(num_qubits=circuit.num_qubits, trap_capacity=capacity)
    compiler = QccdCompiler(device)
    program = benchmark(lambda: compiler.compile(circuit, native=native))
    assert program.num_shuttles > 0


def test_qccd_compile_and_simulate(benchmark, scale, noise):
    circuit = build_workload("QFT", scale)
    capacity = 17 if scale == "paper" else 5
    device = QccdDevice(num_qubits=circuit.num_qubits, trap_capacity=capacity)
    program = QccdCompiler(device).compile(circuit)
    simulator = QccdSimulator(device, noise)
    result = _bench_analytic_run(benchmark, simulator, program)
    assert result.num_moves > 0


def test_statevector_simulation(benchmark):
    """Exact simulation of a 12-qubit QFT (fixed size, scale-independent)."""
    circuit = qft_workload(12)
    simulator = StatevectorSimulator()
    # repro-lint: disable=RPR002 -- micro-benchmark of the raw statevector kernel (the ROADMAP vectorisation target); must time simulator.run alone
    state = benchmark(lambda: simulator.run(circuit))
    assert abs(abs(state[0]) ** 2 - 1 / 4096) < 1e-9


def test_noise_model_evaluation(benchmark):
    """Raw throughput of the Eq. 3/4 evaluation loop."""
    from repro.circuits.gate import Gate
    from repro.noise.fidelity import gate_fidelity

    params = NoiseParameters()
    gate = Gate("xx", (0, 5), (0.3,))

    def evaluate() -> float:
        total = 0.0
        for quanta in range(200):
            total += gate_fidelity(gate, float(quanta), params)
        return total

    total = benchmark(evaluate)
    assert total > 0
