"""Differential oracles for the routers and the analytic simulators.

The production routers build a gate's lookahead window only when it needs
a SWAP, score candidates from an index of that window, and (baseline)
build the routed circuit of the winning trial only.  The simulators read
Eq. 4 fidelities from a :class:`~repro.noise.fidelity.FidelityTable`.  The
references below are the direct forms they replaced — a full-window Eq. 1
scan for every two-qubit gate, a complete routed circuit per baseline
trial, and a per-gate ``gate_fidelity`` / ``gate_time_us`` loop — and the
production results must equal them exactly.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler.layout import QubitMapping
from repro.compiler.pipeline import (
    CompilerConfig,
    LinQCompiler,
    lower_to_native,
)
from repro.compiler.qccd_compiler import QccdCompiler, QccdGateEvent
from repro.compiler.routing import (
    RoutingResult,
    SwapRecord,
    classify_opposing,
    pending_two_qubit_gates,
)
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.noise.fidelity import (
    FidelityTable,
    SuccessRateAccumulator,
    gate_fidelity,
)
from repro.noise.gate_times import gate_time_us, two_qubit_gate_time_us
from repro.noise.heating import ChainHeatingState, quanta_after_moves
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import GatePoint, resolve_scenario
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import (
    COOLING_TIME_US,
    MERGE_TIME_US,
    SEGMENT_HOP_TIME_US,
    SPLIT_TIME_US,
    QccdSimulator,
)
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.suite import build_workload, standard_suite

SMALL_SUITE = [spec.name for spec in standard_suite()]


# ----------------------------------------------------------------------
# Routing references
# ----------------------------------------------------------------------
def reference_linq_route(router: LinqSwapInserter, circuit: Circuit,
                         initial_mapping: QubitMapping | None = None
                         ) -> RoutingResult:
    """Algorithm 1 with a full lookahead window built for every two-qubit
    gate and every candidate scored by a scan of the whole window."""
    device = router.device
    mapping = (initial_mapping.copy() if initial_mapping is not None
               else QubitMapping.identity(device.num_qubits))
    initial = mapping.copy()
    routed = Circuit(device.num_qubits, f"{circuit.name}_routed")
    swaps: list[SwapRecord] = []
    two_qubit_indices = [index for index, gate in enumerate(circuit)
                         if gate.is_two_qubit]
    cursor = 0

    def position_after(logical: int, low: int, high: int) -> int:
        position = mapping.physical(logical)
        if position == low:
            return high
        if position == high:
            return low
        return position

    def score_delta(low: int, high: int, pending) -> float:
        moved_low, moved_high = mapping.logical(low), mapping.logical(high)
        delta, discount = 0.0, 1.0
        for _, pending_gate in pending:
            a, b = pending_gate.qubits
            if moved_low in (a, b) or moved_high in (a, b):
                old_distance = mapping.gate_distance(pending_gate)
                new_distance = abs(position_after(a, low, high)
                                   - position_after(b, low, high))
                delta += (new_distance - old_distance) * discount
            discount *= router.alpha
        return delta

    for index, gate in enumerate(circuit):
        if not gate.is_two_qubit:
            routed.append(mapping.apply_to_gate(gate))
            continue
        while (cursor < len(two_qubit_indices)
               and two_qubit_indices[cursor] < index):
            cursor += 1
        pending = [(i, circuit[i]) for i in two_qubit_indices[
            cursor:cursor + router.lookahead_window]]
        while mapping.gate_distance(gate) > device.max_gate_span:
            low, high = sorted(map(mapping.physical, gate.qubits))
            candidates = []
            for middle in range(low + 1, high):
                if middle - low <= router.max_swap_len:
                    candidates.append((low, middle))
                if high - middle <= router.max_swap_len:
                    candidates.append((middle, high))
            pair = min(candidates, key=lambda c: (score_delta(*c, pending),
                                                  c[1] - c[0], c[0]))
            swaps.append(SwapRecord(pair, len(routed), index,
                                    classify_opposing(*pair, pending,
                                                      mapping)))
            routed.append(Gate("swap", pair))
            mapping.swap_physical(*pair)
        routed.append(mapping.apply_to_gate(gate))
    return RoutingResult(routed, initial, mapping, swaps)


def reference_baseline_route(router: BaselineSwapInserter, circuit: Circuit,
                             initial_mapping: QubitMapping | None = None
                             ) -> RoutingResult:
    """The baseline with every trial building and classifying its own
    routed circuit; the first trial with the fewest (swaps, total span)
    is kept."""
    device = router.device
    base = (initial_mapping.copy() if initial_mapping is not None
            else QubitMapping.identity(device.num_qubits))
    best, best_key = None, None
    for trial in range(router.trials):
        rng = random.Random(router.seed + trial)
        mapping = base.copy()
        initial = mapping.copy()
        routed = Circuit(device.num_qubits, f"{circuit.name}_routed")
        swaps: list[SwapRecord] = []
        for index, gate in enumerate(circuit):
            while (gate.is_two_qubit
                   and mapping.gate_distance(gate) > device.max_gate_span):
                low, high = sorted(map(mapping.physical, gate.qubits))
                step = min(router.max_swap_len, high - low - 1)
                pair = ((low, low + step) if rng.random() < 0.5
                        else (high - step, high))
                pending = pending_two_qubit_gates(circuit, index, 20)
                swaps.append(SwapRecord(pair, len(routed), index,
                                        classify_opposing(*pair, pending,
                                                          mapping)))
                routed.append(Gate("swap", pair))
                mapping.swap_physical(*pair)
            routed.append(mapping.apply_to_gate(gate))
        result = RoutingResult(routed, initial, mapping, swaps)
        key = (result.num_swaps, sum(record.span for record in swaps))
        if best_key is None or key < best_key:
            best, best_key = result, key
    return best


def assert_same_routing(actual: RoutingResult,
                        expected: RoutingResult) -> None:
    assert actual.circuit.name == expected.circuit.name
    assert actual.circuit.num_qubits == expected.circuit.num_qubits
    assert actual.circuit.gates == expected.circuit.gates
    assert actual.swaps == expected.swaps
    assert actual.initial_mapping == expected.initial_mapping
    assert actual.final_mapping == expected.final_mapping


def _router(kind: str, device: TiltDevice, **options):
    if kind == "linq":
        return LinqSwapInserter(device, **options), reference_linq_route
    return BaselineSwapInserter(device, **options), reference_baseline_route


def _small_device(circuit: Circuit) -> TiltDevice:
    return TiltDevice(num_qubits=circuit.num_qubits,
                      head_size=max(4, circuit.num_qubits // 4))


def random_circuit(seed: int, num_qubits: int = 12,
                   num_gates: int = 150) -> Circuit:
    """Random one- and two-qubit gates (plus barriers and measurements)."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, f"random{seed}")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.5:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.append(Gate("xx", (a, b), (rng.uniform(-1, 1),)))
        elif roll < 0.9:
            circuit.append(Gate("rz", (rng.randrange(num_qubits),),
                                (rng.uniform(-1, 1),)))
        elif roll < 0.95:
            circuit.append(Gate("barrier",
                                tuple(rng.sample(range(num_qubits), 3))))
        else:
            circuit.append(Gate("measure", (rng.randrange(num_qubits),)))
    return circuit


class TestRoutersMatchReference:
    @pytest.mark.parametrize("swap_len", ["one", "mid", "max"])
    @pytest.mark.parametrize("name", SMALL_SUITE)
    @pytest.mark.parametrize("kind", ["linq", "baseline"])
    def test_small_suite(self, kind, name, swap_len):
        native = lower_to_native(build_workload(name, "small"))
        device = _small_device(native)
        span = device.max_gate_span
        max_swap_len = {"one": 1, "mid": (span + 1) // 2,
                        "max": span}[swap_len]
        router, reference = _router(kind, device, max_swap_len=max_swap_len)
        expected = reference(router, native)
        assert_same_routing(router.route(native), expected)
        if name in ("BV", "QFT", "SQRT"):
            assert expected.num_swaps > 0

    # Short circuits give baseline trials that tie on (swaps, span); a
    # two-gate window with alpha 0.5 gives Eq. 1 scores that tie and fall
    # to the (span, low) tie-break.
    @pytest.mark.parametrize("seed,num_gates,options", [
        (0, 40, {}),
        (1, 40, {"lookahead_window": 1}),
        (2, 150, {"lookahead_window": 2, "alpha": 0.5}),
        (3, 150, {"lookahead_window": 30, "max_swap_len": 2}),
        (4, 150, {"alpha": 0.9, "max_swap_len": 1}),
    ])
    @pytest.mark.parametrize("kind", ["linq", "baseline"])
    def test_random_circuits(self, kind, seed, num_gates, options):
        circuit = random_circuit(seed, num_gates=num_gates)
        device = TiltDevice(num_qubits=circuit.num_qubits, head_size=4)
        if kind == "baseline":
            options = {"max_swap_len": options.get("max_swap_len"),
                       "seed": seed}
        router, reference = _router(kind, device, **options)
        expected = reference(router, circuit)
        assert expected.num_swaps > 0
        assert_same_routing(router.route(circuit), expected)

    @pytest.mark.parametrize("kind", ["linq", "baseline"])
    def test_nontrivial_initial_mapping(self, kind):
        native = lower_to_native(build_workload("QFT", "small"))
        device = _small_device(native)
        layout = list(range(device.num_qubits))
        random.Random(5).shuffle(layout)
        initial = QubitMapping(layout)
        router, reference = _router(kind, device)
        expected = reference(router, native, initial)
        assert expected.num_swaps > 0
        assert_same_routing(router.route(native, initial), expected)

    @pytest.mark.parametrize("kind", ["linq", "baseline"])
    def test_cases_exercise_opposing_swaps(self, kind):
        native = lower_to_native(build_workload("QFT", "small"))
        router, _ = _router(kind, _small_device(native))
        result = router.route(native)
        assert 0 < result.num_opposing_swaps < result.num_swaps


# ----------------------------------------------------------------------
# Analytic-simulation references
# ----------------------------------------------------------------------
def _with_fidelities(result, fidelities, execution_time_us):
    """*result* with every Eq. 3/4-derived field recomputed from a
    per-gate fidelity list and a reference execution time."""
    accumulator = SuccessRateAccumulator()
    for fidelity in fidelities:
        accumulator.add(fidelity)
    return dataclasses.replace(
        result,
        success_rate=accumulator.success_rate,
        log10_success_rate=accumulator.log10_success_rate,
        execution_time_us=execution_time_us,
        average_gate_fidelity=accumulator.average_gate_fidelity,
        worst_gate_fidelity=accumulator.worst_gate_fidelity,
    )


def reference_tilt(simulator: TiltSimulator, program):
    params = simulator.params
    chain_length = simulator.device.num_qubits
    fidelities = [
        gate_fidelity(gate, quanta_after_moves(moves, chain_length, params),
                      params)
        for gate, moves in program.gates_with_move_counts()
    ]
    shuttle_time = program.move_distance_um / params.shuttle_speed_um_per_us
    interval = params.tilt_cooling_interval_moves
    if interval > 0 and program.num_moves > 0:
        shuttle_time += ((program.num_moves - 1) // interval
                         ) * params.tilt_cooling_time_us
    gate_time = 0.0
    for _, gates in program.gates_by_segment():
        finish_at: dict[int, float] = {}
        segment_end = 0.0
        for gate in gates:
            start = max((finish_at.get(q, 0.0) for q in gate.qubits),
                        default=0.0)
            end = start + gate_time_us(gate, params)
            for qubit in gate.qubits:
                finish_at[qubit] = end
            segment_end = max(segment_end, end)
        gate_time += segment_end
    return fidelities, shuttle_time + gate_time


def reference_ideal(simulator: IdealSimulator, native: Circuit):
    params = simulator.params
    fidelities = []
    finish_at: dict[int, float] = {}
    total_time = 0.0
    for gate in native:
        fidelities.append(gate_fidelity(gate, 0.0, params))
        start = max((finish_at.get(q, 0.0) for q in gate.qubits),
                    default=0.0)
        end = start + gate_time_us(gate, params)
        for qubit in gate.qubits:
            finish_at[qubit] = end
        total_time = max(total_time, end)
    return fidelities, total_time


def reference_qccd(simulator: QccdSimulator, program):
    params = simulator.params
    chains = {trap: ChainHeatingState(params, max(1, len(ions)))
              for trap, ions in enumerate(simulator.device.initial_layout())}
    fidelities = []
    total_time = 0.0
    for event in program.events:
        if isinstance(event, QccdGateEvent):
            gate = event.gate
            if gate.num_qubits == 2:
                total_time += two_qubit_gate_time_us(max(1, event.distance),
                                                     params)
                quanta = chains[event.trap].quanta
            else:
                total_time += gate_time_us(gate, params)
                quanta = 0.0
            fidelities.append(gate_fidelity(gate, quanta, params))
        else:
            total_time += (event.splits * SPLIT_TIME_US
                           + event.hops * SEGMENT_HOP_TIME_US
                           + event.merges * MERGE_TIME_US)
            chains[event.source_trap].record_qccd_primitive(event.splits)
            chains[event.dest_trap].record_qccd_primitive(event.hops
                                                          + event.merges)
            chains[event.source_trap].apply_cooling()
            chains[event.dest_trap].apply_cooling()
            total_time += COOLING_TIME_US
    return fidelities, total_time


NOISE_CASES = {
    "paper": NoiseParameters.paper_defaults(),
    "cooling": NoiseParameters.paper_defaults().with_overrides(
        tilt_cooling_interval_moves=2),
    # Γτ > 1 for every gate spanning three or more ions: those clamp to 0
    "hit_zero": NoiseParameters.paper_defaults().with_overrides(
        background_heating_rate_per_us=0.01),
}


def _gate_point_fidelities(points) -> list[float]:
    return [point.fidelity for point in points if isinstance(point, GatePoint)]


#: A case compiled with its barriers kept (``strip_barriers=False``).
BARRIER_CASE = "partial_barrier"


def _oracle_circuit(name: str) -> Circuit:
    """A small-suite workload, or the barrier case: two-qubit work on
    qubits 0-1 that a barrier narrower than the head makes qubit 2's
    gates wait for, then long-range gates that need SWAPs and several
    tape segments."""
    if name != BARRIER_CASE:
        return build_workload(name, "small")
    circuit = Circuit(12, BARRIER_CASE)
    for _ in range(3):
        circuit.cx(0, 1)
    circuit.barrier(0, 1, 2)
    for _ in range(3):
        circuit.cx(2, 3)
    circuit.h(4).barrier(4, 5).cx(5, 6)
    for qubit in range(11):
        circuit.cx(qubit, 11 - qubit)
    for qubit in range(12):
        circuit.measure(qubit)
    return circuit


def _assert_counts(result, circuit: Circuit) -> None:
    assert result.num_gates == circuit.num_gates()
    assert result.num_two_qubit_gates == circuit.num_two_qubit_gates()


class TestSimulatorsMatchReference:
    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE + [BARRIER_CASE])
    def test_tilt(self, name, noise):
        params = NOISE_CASES[noise]
        circuit = _oracle_circuit(name)
        device = _small_device(circuit)
        config = CompilerConfig(strip_barriers=name != BARRIER_CASE)
        compiled = LinQCompiler(device, config).compile(circuit)
        simulator = TiltSimulator(device, params)
        result = simulator.run(compiled)
        fidelities, execution_time = reference_tilt(simulator,
                                                    compiled.program)
        assert result == _with_fidelities(result, fidelities, execution_time)
        _assert_counts(result, compiled.program.circuit)
        assert [f for _, f in simulator.gate_fidelities(compiled.program)
                ] == fidelities
        points = simulator.scenario_points(compiled.program,
                                           resolve_scenario("crosstalk"))
        assert _gate_point_fidelities(points) == fidelities

    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE + [BARRIER_CASE])
    def test_ideal(self, name, noise):
        circuit = _oracle_circuit(name)
        native = lower_to_native(circuit,
                                 strip_barriers=name != BARRIER_CASE)
        simulator = IdealSimulator(
            IdealTrappedIonDevice(num_qubits=circuit.num_qubits),
            NOISE_CASES[noise])
        result = simulator.run(circuit, native=native)
        fidelities, execution_time = reference_ideal(simulator, native)
        assert result == _with_fidelities(result, fidelities, execution_time)
        _assert_counts(result, native)
        points = simulator.scenario_points(native,
                                           resolve_scenario("crosstalk"))
        assert _gate_point_fidelities(points) == fidelities

    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_qccd(self, name, noise):
        circuit = build_workload(name, "small")
        device = QccdDevice(num_qubits=circuit.num_qubits,
                            trap_capacity=max(4, circuit.num_qubits // 3))
        program = QccdCompiler(device).compile(circuit)
        simulator = QccdSimulator(device, NOISE_CASES[noise])
        result = simulator.run(program, circuit_name=circuit.name)
        fidelities, execution_time = reference_qccd(simulator, program)
        assert result == _with_fidelities(result, fidelities, execution_time)
        trace = simulator.trace(program, resolve_scenario("crosstalk"))
        assert trace.fidelities == fidelities
        assert _gate_point_fidelities(trace.points) == fidelities

    def test_hit_zero_case_clamps(self):
        """The strong-noise case really drives some gate fidelity to 0."""
        params = NOISE_CASES["hit_zero"]
        circuit = build_workload("QFT", "small")
        device = _small_device(circuit)
        qccd = QccdDevice(num_qubits=circuit.num_qubits, trap_capacity=5)
        results = [
            TiltSimulator(device, params).run(
                LinQCompiler(device).compile(circuit)),
            IdealSimulator(IdealTrappedIonDevice(circuit.num_qubits),
                           params).run(circuit),
            QccdSimulator(qccd, params).run(QccdCompiler(qccd).compile(
                circuit)),
        ]
        for result in results:
            assert result.success_rate == 0.0
            assert result.log10_success_rate == float("-inf")
            assert result.worst_gate_fidelity == 0.0


class TestFidelityTable:
    def test_values_equal_direct_evaluation(self):
        params = NoiseParameters.paper_defaults()
        table = FidelityTable(params)
        gates = [Gate("xx", (0, 5), (0.3,)), Gate("xx", (7, 2), (0.1,)),
                 Gate("swap", (1, 6)), Gate("rz", (4,), (0.2,)),
                 Gate("measure", (3,)), Gate("barrier", (0, 1, 2))]
        for gate in gates:
            for quanta in (0.0, 1.5, 40.0):
                assert table.fidelity(gate, quanta) == gate_fidelity(
                    gate, quanta, params)

    def test_tables_are_independent(self):
        gate = Gate("xx", (0, 3), (0.3,))
        calm = FidelityTable(NoiseParameters.paper_defaults())
        hot = FidelityTable(NoiseParameters.paper_defaults().with_overrides(
            background_heating_rate_per_us=0.01))
        assert calm.fidelity(gate, 0.0) > hot.fidelity(gate, 0.0)
