"""Differential oracles for the compile stages, simulators and spec keys.

The production routers build a gate's lookahead window only when it needs
a SWAP, score candidates from an index of that window, and (baseline)
build the routed circuit of the winning trial only, classifying its SWAPs
against a slice of one list of two-qubit gates.  The simulators read
Eq. 4 fidelities from a :class:`~repro.noise.fidelity.FidelityTable` and
build every sampler, baseline included, from the columns of one execution
timeline, expanded with numpy; crosstalk spectators come from the
operands' neighbourhood.  The QCCD compiler appends each gate to columns
and each transport with its gate's position.  The lowering expands each
gate straight to native gates and fuses rotations in the same pass;
compile stats count in
one walk, schedule validation checks in one walk, and spec keys encode
each circuit once per batch.  The references below are the direct forms
they replaced — a full-window Eq. 1 scan for every two-qubit gate, a
complete routed circuit per baseline trial with a rescan of the circuit
for every SWAP's lookahead, one list of QCCD gate and shuttle records, a
per-gate ``gate_fidelity``
/ ``gate_time_us`` loop, one point and one ``ErrorSite`` per timeline
entry and site, a scan of the whole window for spectators, a
three-circuit lowering, four counting walks, a two-walk validation and a
whole-spec encoding — and the production results must equal them
exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import GATE_SPECS, Gate
from repro.compiler.decompose import decompose_to_cx, merge_adjacent_rotations
from repro.compiler.executable import ExecutableProgram, TapeSegment
from repro.compiler.layout import QubitMapping
from repro.compiler.metrics import CompileStats, collect_stats
from repro.compiler.pipeline import (
    CompilerConfig,
    LinQCompiler,
    lower_to_native,
)
from repro.compiler.qccd_compiler import (
    QccdCompiler,
    QccdGateEvent,
    QccdShuttleEvent,
)
from repro.compiler.routing import (
    RoutingResult,
    SwapRecord,
    classify_opposing,
)
from repro.compiler.schedule import TapeScheduler
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.exceptions import SchedulingError, SimulationError
from repro.exec import ExecutionEngine, JobSpec, spec_key
from repro.noise.channels import (
    CROSSTALK,
    HEATING_BURST,
    KIND_CODES,
    LEAKAGE,
    MEASURE_FLIP,
    PAULI_1Q,
    PAULI_2Q,
    SITE_KINDS,
    ErrorSite,
    SiteTable,
)
from repro.noise.fidelity import (
    FidelityTable,
    SuccessRateAccumulator,
    gate_fidelity,
)
from repro.noise.gate_times import gate_time_us, two_qubit_gate_time_us
from repro.noise.heating import ChainHeatingState, quanta_after_moves
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    Timeline,
    _window_groups,
    _window_log10_success,
    chain_spectators,
    get_scenario,
    resolve_scenario,
    scenario_analytics,
    scenario_names,
)
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import (
    COOLING_TIME_US,
    MERGE_TIME_US,
    SEGMENT_HOP_TIME_US,
    SPLIT_TIME_US,
    QccdSimulator,
)
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload
from repro.workloads.suite import build_workload, standard_suite
from tests.test_spec_keys import representative_specs

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


def pending_two_qubit_gates(circuit: Circuit, start_index: int,
                            limit: int) -> list[tuple[int, Gate]]:
    """The next *limit* two-qubit gates of *circuit* from *start_index* on."""
    window: list[tuple[int, Gate]] = []
    for index in range(start_index, len(circuit)):
        gate = circuit[index]
        if gate.is_two_qubit:
            window.append((index, gate))
            if len(window) >= limit:
                break
    return window


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
# QCCD compile reference: one list of gate and shuttle records
# ----------------------------------------------------------------------
def reference_qccd_compile(device: QccdDevice, native: Circuit) -> list:
    """The QCCD compile as one record list: a gate record per gate, each
    transport's shuttle record before the gate that needs it (an
    eviction from a full destination trap first)."""
    traps = device.initial_layout()
    trap_of = {q: t for t, chain in enumerate(traps) for q in chain}
    events: list = []

    def move(qubit: int, dest: int) -> None:
        source = trap_of[qubit]
        chain = traps[source]
        index = chain.index(qubit)
        swaps_to_edge = len(chain) - 1 - index if dest > source else index
        chain.remove(qubit)
        if dest > source:
            traps[dest].insert(0, qubit)
        else:
            traps[dest].append(qubit)
        trap_of[qubit] = dest
        events.append(QccdShuttleEvent(
            qubit=qubit, source_trap=source, dest_trap=dest,
            swap_to_edge_gates=swaps_to_edge, splits=1,
            hops=device.trap_distance(source, dest), merges=1))

    capacity = device.trap_capacity
    for gate in native:
        if gate.num_qubits == 1 or gate.name == "measure":
            events.append(QccdGateEvent(gate, trap_of[gate.qubits[0]], 0))
            continue
        a, b = gate.qubits
        trap_a, trap_b = trap_of[a], trap_of[b]
        if trap_a != trap_b:
            if len(traps[trap_b]) < capacity:
                move(a, trap_b)
            elif len(traps[trap_a]) < capacity:
                move(b, trap_a)
            else:
                evicted = min(q for q in traps[trap_b] if q not in (a, b))
                refuge = min((t for t in range(device.num_traps)
                              if t != trap_b and len(traps[t]) < capacity),
                             key=lambda t: (abs(t - trap_b), t))
                move(evicted, refuge)
                move(a, trap_b)
        trap = trap_of[a]
        chain = traps[trap]
        events.append(QccdGateEvent(
            gate, trap, max(1, abs(chain.index(a) - chain.index(b)))))
    return events


#: Small-suite workloads at trap capacity ``max(4, n // 3)`` ("third")
#: and 3, and paper-scale QFT on the paper's QCCD machine.
QCCD_COMPILE_CASES = ([(name, "small", capacity) for name in SMALL_SUITE
                       for capacity in ("third", 3)]
                      + [("QFT", "paper", 17)])


def _qccd_case(name: str, scale: str, capacity):
    """The case's source circuit, its lowering and its QCCD device."""
    circuit = _suite_circuit(name, scale)
    if capacity == "third":
        capacity = max(4, circuit.num_qubits // 3)
    return (circuit, lower_to_native(circuit),
            QccdDevice(num_qubits=circuit.num_qubits, trap_capacity=capacity))


class TestQccdCompileMatchesReference:
    @pytest.mark.parametrize("name,scale,capacity", QCCD_COMPILE_CASES)
    def test_events(self, name, scale, capacity):
        circuit, native, device = _qccd_case(name, scale, capacity)
        program = QccdCompiler(device).compile(circuit, native=native)
        expected = reference_qccd_compile(device, native)
        assert program.events == expected
        assert program.gate_events == [
            event for event in expected if isinstance(event, QccdGateEvent)]
        assert program.shuttle_events == [
            event for event in expected
            if isinstance(event, QccdShuttleEvent)]

    def test_cases_cover_transports_and_evictions(self):
        """Transports run before their gate, in the paper case too, and
        some of them evict an ion from a full trap first (two shuttle
        records in a row)."""
        kinds = set()
        for case in QCCD_COMPILE_CASES:
            _, native, device = _qccd_case(*case)
            events = reference_qccd_compile(device, native)
            kinds.update((type(first), type(second)) for first, second
                         in zip(events, events[1:]))
            if case[1] == "paper":
                assert any(isinstance(event, QccdShuttleEvent)
                           for event in events)
        assert (QccdShuttleEvent, QccdGateEvent) in kinds
        assert (QccdShuttleEvent, QccdShuttleEvent) in kinds


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


def reference_baseline_sites(gates, fidelities) -> list[ErrorSite]:
    """The baseline error sites of an executed gate sequence: one
    ``error_site_for_gate`` per gate and its fidelity, in execution
    order."""
    sites = []
    for index, (gate, fidelity) in enumerate(zip(gates, fidelities,
                                                 strict=True)):
        site = error_site_for_gate(index, gate, fidelity)
        if site is not None:
            sites.append(site)
    return sites


def _assert_baseline_sampler(sampler, result, gates, fidelities) -> None:
    """*sampler* carries the reference baseline sites, the executed gates
    and the analytic *result* unchanged, and expects the sites' plain
    survival product.  Windows are left out: no baseline site's window
    is read."""
    def columns(sites):
        return [(site.index, site.kind, site.qubits, site.probability)
                for site in sites]

    sites = reference_baseline_sites(gates, fidelities)
    assert columns(sampler.sites) == columns(sites)
    assert list(sampler.gates) == gates
    assert sampler.analytic == result
    log_survival = 0.0
    for site in sites:
        if site.probability >= 1.0:
            assert sampler.expected_success_rate == 0.0
            return
        log_survival += math.log1p(-site.probability)
    assert sampler.expected_success_rate == math.exp(log_survival)


NOISE_CASES = {
    "paper": NoiseParameters.paper_defaults(),
    # cooling windows on the tape, and a readout that flips (the
    # paper's is perfect)
    "cooling": NoiseParameters.paper_defaults().with_overrides(
        tilt_cooling_interval_moves=2, measurement_error=1e-3),
    # Γτ > 1 for every gate spanning three or more ions: those clamp to 0
    "hit_zero": NoiseParameters.paper_defaults().with_overrides(
        background_heating_rate_per_us=0.01),
}


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
        _assert_baseline_sampler(
            simulator.build_sampler(compiled), result,
            [gate for gate, _ in compiled.program.gates_with_move_counts()],
            fidelities,
        )
        timeline = Timeline.for_scenario(resolve_scenario("crosstalk"))
        assert simulator._replay(compiled.program, circuit.name,
                                 timeline) == result
        assert timeline.fidelities == fidelities

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
        _assert_baseline_sampler(
            simulator.build_sampler(circuit, native=native), result,
            list(native), fidelities,
        )
        timeline = Timeline.for_scenario(resolve_scenario("crosstalk"))
        assert simulator._result_from_native(circuit.name, native,
                                             timeline) == result
        assert timeline.fidelities == fidelities

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
        _assert_baseline_sampler(
            simulator.build_sampler(program, circuit_name=circuit.name),
            result,
            [event.gate for event in program.events
             if isinstance(event, QccdGateEvent)],
            fidelities,
        )
        timeline = Timeline.for_scenario(resolve_scenario("crosstalk"))
        assert simulator.trace(program, timeline, circuit.name) == result
        assert timeline.fidelities == fidelities

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


# ----------------------------------------------------------------------
# Scenario-site references: the per-point expansion the columnar
# timeline replaced (one record per executed gate and shuttle, one
# ErrorSite per site, the spectator scan over every ion of the window)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GatePoint:
    """One executed gate on a reference timeline: its position in
    execution order, its Eq. 4 fidelity, the ``(ion, distance)`` pairs a
    crosstalk kick can reach and its burst-coupling window."""

    index: int
    gate: Gate
    fidelity: float
    spectators: tuple[tuple[int, int], ...] = ()
    window: int = 0


@dataclasses.dataclass(frozen=True)
class ShuttlePoint:
    """One shuttle: its 1-based move/transport number and the window the
    burst it may deposit lives in."""

    move: int
    window: int = 0


def reference_chain_spectators(qubits, window_ions, max_distance):
    """Every ion of the window, kept when its distance to the nearest
    operand is between 1 and *max_distance*, sorted by ion."""
    operands = set(qubits)
    spectators = []
    for ion in window_ions:
        if ion in operands:
            continue
        distance = min(abs(ion - q) for q in operands)
        if 1 <= distance <= max_distance:
            spectators.append((ion, distance))
    return tuple(sorted(spectators))


def reference_trap_spectators(ions, operands, max_distance):
    """The scan in one trap's chain order, mapped back to ion ids."""
    positions = {ion: position for position, ion in enumerate(ions)}
    pairs = reference_chain_spectators(
        tuple(positions[q] for q in operands if q in positions),
        range(len(ions)), max_distance,
    )
    return tuple(sorted((ions[position], distance)
                        for position, distance in pairs))


def error_site_for_gate(index: int, gate: Gate, fidelity: float,
                        window: int = 0) -> ErrorSite | None:
    """The error site of one executed gate, or ``None`` if it cannot fail
    (a barrier, or a gate of fidelity 1)."""
    if not 0.0 <= fidelity <= 1.0:
        raise SimulationError(f"fidelity {fidelity} outside [0, 1]")
    if gate.name == "barrier" or fidelity >= 1.0:
        return None
    if gate.name == "measure":
        kind = MEASURE_FLIP
    elif gate.num_qubits == 1:
        kind = PAULI_1Q
    elif gate.num_qubits == 2:
        kind = PAULI_2Q
    else:
        raise SimulationError(
            f"gate {gate.name!r} must be decomposed before stochastic "
            "noise evaluation"
        )
    return ErrorSite(index=index, kind=kind, qubits=gate.qubits,
                     probability=1.0 - fidelity, window=window)


def build_scenario_sites(points, scenario) -> list[ErrorSite]:
    """Expand reference points into sites: per gate its base site, then
    crosstalk kicks by spectator, then leakage sites by operand; a
    burst at each shuttle."""
    sites: list[ErrorSite] = []
    for point in points:
        if isinstance(point, ShuttlePoint):
            if scenario.burst_probability > 0.0:
                sites.append(ErrorSite(
                    index=point.move, kind=HEATING_BURST, qubits=(),
                    probability=scenario.burst_probability,
                    window=point.window,
                ))
            continue
        gate = point.gate
        base = error_site_for_gate(point.index, gate, point.fidelity,
                                   window=point.window)
        if base is not None:
            sites.append(base)
        if gate.name in ("barrier", "measure"):
            continue
        if scenario.crosstalk_strength > 0.0 and gate.num_qubits == 2:
            for ion, distance in point.spectators:
                probability = scenario.crosstalk_probability(distance)
                if probability > 0.0:
                    sites.append(ErrorSite(
                        index=point.index, kind=CROSSTALK, qubits=(ion,),
                        probability=probability, window=point.window,
                    ))
        rate = (scenario.leakage_rate_2q if gate.num_qubits == 2
                else scenario.leakage_rate_1q)
        if rate > 0.0:
            for qubit in gate.qubits:
                sites.append(ErrorSite(
                    index=point.index, kind=LEAKAGE, qubits=(qubit,),
                    probability=rate, window=point.window,
                ))
    return sites


def _spectators_of(gate, scenario, window_ions):
    if scenario.crosstalk_strength > 0.0 and gate.num_qubits == 2:
        return reference_chain_spectators(gate.qubits, window_ions,
                                          scenario.crosstalk_range)
    return ()


def reference_tilt_points(simulator: TiltSimulator, program, scenario):
    """Every gate of every segment at its segment's quanta and cooling
    window, its spectators under the head; a shuttle per tape move."""
    params = simulator.params
    interval = params.tilt_cooling_interval_moves
    points = []
    gates = 0
    for moves, segment in enumerate(program.segments):
        window = (moves - 1) // interval if interval > 0 and moves else 0
        if moves:
            points.append(ShuttlePoint(move=moves, window=window))
        quanta = quanta_after_moves(moves, simulator.device.num_qubits,
                                    params)
        head = simulator.device.window(segment.position)
        for index in segment.gate_indices:
            gate = program.circuit[index]
            points.append(GatePoint(
                index=gates, gate=gate,
                fidelity=gate_fidelity(gate, quanta, params),
                spectators=_spectators_of(gate, scenario, head),
                window=window,
            ))
            gates += 1
    return points


def reference_ideal_points(simulator: IdealSimulator, native, scenario):
    """Every gate at zero quanta, its spectators over the whole chain."""
    return [
        GatePoint(index=index, gate=gate,
                  fidelity=gate_fidelity(gate, 0.0, simulator.params),
                  spectators=_spectators_of(gate, scenario,
                                            range(native.num_qubits)))
        for index, gate in enumerate(native)
    ]


def reference_qccd_points(simulator: QccdSimulator, program, scenario):
    """Every gate event at its trap's quanta, in the trap as window with
    the trap's other ions as spectators; a shuttle per transport, in
    the destination trap."""
    params = simulator.params
    members = [list(ions) for ions in simulator.device.initial_layout()]
    chains = {trap: ChainHeatingState(params, max(1, len(ions)))
              for trap, ions in enumerate(members)}
    points = []
    gates = transports = 0
    for event in program.events:
        if isinstance(event, QccdGateEvent):
            gate = event.gate
            quanta = chains[event.trap].quanta
            spectators = ()
            if scenario.crosstalk_strength > 0.0 and gate.num_qubits == 2:
                spectators = reference_trap_spectators(
                    members[event.trap], gate.qubits,
                    scenario.crosstalk_range)
            points.append(GatePoint(
                index=gates, gate=gate,
                fidelity=gate_fidelity(gate, quanta, params),
                spectators=spectators, window=event.trap,
            ))
            gates += 1
        else:
            chains[event.source_trap].record_qccd_primitive(event.splits)
            chains[event.dest_trap].record_qccd_primitive(event.hops
                                                          + event.merges)
            chains[event.source_trap].apply_cooling()
            chains[event.dest_trap].apply_cooling()
            if event.qubit in members[event.source_trap]:
                members[event.source_trap].remove(event.qubit)
                members[event.dest_trap].append(event.qubit)
            transports += 1
            points.append(ShuttlePoint(move=transports,
                                       window=event.dest_trap))
    return points


def reference_scenario_sites(simulator, program, scenario) -> list[ErrorSite]:
    """The error sites of *program* under *scenario*: the simulator's
    reference points through :func:`build_scenario_sites`."""
    points_of = {TiltSimulator: reference_tilt_points,
                 IdealSimulator: reference_ideal_points,
                 QccdSimulator: reference_qccd_points}[type(simulator)]
    return build_scenario_sites(points_of(simulator, program, scenario),
                                scenario)


def reference_window_log10_success(codes: np.ndarray,
                                   probabilities: np.ndarray,
                                   multiplier: float) -> float:
    """One window's plain log-sum, or its burst DP one site at a time:
    a burst site branches the weights, an error site multiplies in its
    factor row (a site with ``p = 0`` leaves them as they are), and the
    weights are rescaled after any site that leaves their mass below
    1e-150."""
    burst = KIND_CODES[HEATING_BURST]
    if not (codes == burst).any():
        if (probabilities >= 1.0).any():
            return float("-inf")
        log_total = 0.0
        for probability in probabilities.tolist():
            log_total += math.log1p(-probability)
        return log_total * math.log10(math.e)
    flip = KIND_CODES[MEASURE_FLIP]
    weights = np.array([1.0])
    log10_total = 0.0
    with np.errstate(over="ignore"):
        scale = multiplier ** np.arange(len(codes) + 1, dtype=float)
    for code, p in zip(codes.tolist(), probabilities.tolist()):
        if code == burst:
            grown = np.zeros(len(weights) + 1)
            grown[:-1] += weights * (1.0 - p)
            grown[1:] += weights * p
            weights = grown
        elif code == flip or p == 0.0:
            weights = weights * (1.0 - p)
        else:
            scaled = np.minimum(1.0, p * scale[:len(weights)])
            weights = weights * (1.0 - scaled)
        total = float(weights.sum())
        if total <= 0.0:
            return float("-inf")
        if total < 1e-150:
            log10_total += math.log10(total)
            weights = weights / total
    return log10_total + math.log10(float(weights.sum()))


def reference_scenario_analytics(sites, scenario):
    """Site counts and expected events by kind, in first-appearance
    order, and the exact log10 success rate, window by window."""
    site_counts: dict[str, int] = {}
    expected_events: dict[str, float] = {}
    windows: dict[int, list[ErrorSite]] = {}
    for site in sites:
        site_counts[site.kind] = site_counts.get(site.kind, 0) + 1
        expected_events[site.kind] = (expected_events.get(site.kind, 0.0)
                                      + site.probability)
        windows.setdefault(site.window, []).append(site)
    log10 = sum(
        reference_window_log10_success(
            np.array([KIND_CODES[site.kind] for site in window]),
            np.array([site.probability for site in window]),
            scenario.burst_error_multiplier)
        for window in windows.values()
    )
    return site_counts, expected_events, log10


def assert_same_table(actual: SiteTable, expected: SiteTable) -> None:
    """Every column equal, with its dtype and shape."""
    for column in dataclasses.fields(SiteTable):
        have = getattr(actual, column.name)
        want = getattr(expected, column.name)
        assert have.dtype == want.dtype, column.name
        assert have.shape == want.shape, column.name
        assert np.array_equal(have, want), column.name


def _assert_scenario_sites(simulator, program, reference_program,
                           **inputs) -> None:
    """Under every registered scenario, the sampler's table equals the
    reference expansion, and the scenario result and the sampler's
    expected rate equal the reference analytics: site counts and
    expected events by kind, in key order, and the log10 rate."""
    baseline = simulator.run(program, **inputs)
    for name in scenario_names():
        scenario = get_scenario(name)
        sites = reference_scenario_sites(simulator, reference_program,
                                         scenario)
        sampler = simulator.build_sampler(program, scenario=scenario,
                                          **inputs)
        assert_same_table(sampler.table, SiteTable.from_sites(sites))
        result = simulator.run(program, scenario=scenario, **inputs)
        if scenario.is_baseline:
            assert result == baseline == sampler.analytic
            continue
        counts, events, log10 = reference_scenario_analytics(sites, scenario)
        extras = {**baseline.extras,
                  **{f"sites_{kind}": float(count)
                     for kind, count in counts.items()},
                  **{f"expected_{kind}": expected
                     for kind, expected in events.items()}}
        rate = 0.0 if log10 == float("-inf") else math.pow(10.0, log10)
        assert result == dataclasses.replace(
            baseline, success_rate=rate, log10_success_rate=log10,
            extras=extras)
        assert list(result.extras) == list(extras)
        assert sampler.analytic == result
        assert sampler.expected_success_rate == rate


class TestScenarioSitesMatchReference:
    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE + [BARRIER_CASE])
    def test_tilt(self, name, noise):
        circuit = _oracle_circuit(name)
        device = _small_device(circuit)
        config = CompilerConfig(strip_barriers=name != BARRIER_CASE)
        compiled = LinQCompiler(device, config).compile(circuit)
        _assert_scenario_sites(TiltSimulator(device, NOISE_CASES[noise]),
                               compiled, compiled.program)

    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE + [BARRIER_CASE])
    def test_ideal(self, name, noise):
        circuit = _oracle_circuit(name)
        native = lower_to_native(circuit,
                                 strip_barriers=name != BARRIER_CASE)
        simulator = IdealSimulator(
            IdealTrappedIonDevice(num_qubits=circuit.num_qubits),
            NOISE_CASES[noise])
        _assert_scenario_sites(simulator, circuit, native, native=native)

    @pytest.mark.parametrize("noise", sorted(NOISE_CASES))
    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_qccd(self, name, noise):
        circuit = build_workload(name, "small")
        device = QccdDevice(num_qubits=circuit.num_qubits,
                            trap_capacity=max(4, circuit.num_qubits // 3))
        program = QccdCompiler(device).compile(circuit)
        _assert_scenario_sites(QccdSimulator(device, NOISE_CASES[noise]),
                               program, program, circuit_name=circuit.name)

    def test_cases_exercise_every_site_kind(self):
        """The cases above reach every site kind, and bursts in more
        than one TILT cooling window; the sampler's record view gives
        the reference records back."""
        circuit = _oracle_circuit(BARRIER_CASE)
        device = _small_device(circuit)
        compiled = LinQCompiler(
            device, CompilerConfig(strip_barriers=False)
        ).compile(circuit)
        simulator = TiltSimulator(device, NOISE_CASES["cooling"])
        scenario = get_scenario("worst_case")
        sites = reference_scenario_sites(simulator, compiled.program,
                                         scenario)
        assert {site.kind for site in sites} == set(SITE_KINDS)
        assert len({site.window for site in sites
                    if site.kind == HEATING_BURST}) > 1
        sampler = simulator.build_sampler(compiled, scenario=scenario)
        assert sampler.sites == tuple(sites)
        assert [sampler.table.site(position)
                for position in range(len(sites))] == sites


def _same_float(actual: float, expected: float) -> bool:
    """``==``, with NaN equal to NaN."""
    return actual == expected or (math.isnan(actual) and math.isnan(expected))


def _burst_tables(name: str, noise: NoiseParameters):
    """The site tables of *name* on TILT, the ideal device and QCCD under
    the two burst scenarios, with their burst multipliers."""
    circuit = build_workload(name, "small")
    n = circuit.num_qubits
    tilt = _small_device(circuit)
    compiled = LinQCompiler(tilt).compile(circuit)
    qccd = QccdDevice(num_qubits=n, trap_capacity=max(4, n // 3))
    program = QccdCompiler(qccd).compile(circuit)
    builds = (
        (TiltSimulator(tilt, noise), compiled, {}),
        (IdealSimulator(IdealTrappedIonDevice(num_qubits=n), noise),
         circuit, {}),
        (QccdSimulator(qccd, noise), program, {"circuit_name": name}),
    )
    for scenario in map(get_scenario, ("heating_burst", "worst_case")):
        for simulator, program_in, inputs in builds:
            table = simulator.build_sampler(program_in, scenario=scenario,
                                            **inputs).table
            yield table, scenario.burst_error_multiplier


def random_window(rng: np.random.Generator):
    """A seeded burst window: any site kind, probabilities from tiny to
    certain (zeros included), and multipliers up to 1e300."""
    size = int(rng.integers(1, 160))
    codes = rng.choice([KIND_CODES[kind] for kind in SITE_KINDS], size=size,
                       p=[0.3, 0.25, 0.05, 0.1, 0.1, 0.2])
    regime = rng.integers(4)
    if regime == 0:
        probabilities = rng.uniform(0.0, 0.05, size)
    elif regime == 1:
        probabilities = rng.uniform(0.0, 1.0, size)
    elif regime == 2:
        probabilities = 10.0 ** rng.uniform(-12.0, 0.0, size)
    else:  # deep enough to rescale
        probabilities = rng.uniform(0.9, 1.0, size)
    probabilities[rng.random(size) < 0.05] = 0.0
    if rng.random() < 0.2:
        probabilities[rng.integers(size)] = 1.0
    multiplier = float(rng.choice([1.0, 1.5, 4.0, 1e3, 1e300]))
    return codes, probabilities, multiplier


def gave_nan_before_zero_exemption(codes: np.ndarray,
                                   probabilities: np.ndarray,
                                   multiplier: float) -> bool:
    """Whether the window read NaN while a ``p = 0`` error site still took
    its burst scaling: such a site behind an overflowed ``multiplier **
    k`` made ``0 * inf``, unless the window had failed outright before."""
    with np.errstate(over="ignore"):
        scale = multiplier ** np.arange(len(codes) + 1, dtype=float)
    bursts_before = np.cumsum(codes == KIND_CODES[HEATING_BURST])
    for site, (code, p) in enumerate(zip(codes.tolist(),
                                         probabilities.tolist())):
        if (p == 0.0 and code != KIND_CODES[HEATING_BURST]
                and code != KIND_CODES[MEASURE_FLIP]
                and scale[bursts_before[site]] == float("inf")):
            return reference_window_log10_success(
                codes[:site], probabilities[:site],
                multiplier) > float("-inf")
    return False


class TestBurstDpMatchesReference:
    """The stretch-wise burst DP equals the per-site loop with ``==``."""

    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_every_suite_window(self, name):
        burst_windows = 0
        for noise in (NOISE_CASES["paper"], NOISE_CASES["cooling"]):
            for table, multiplier in _burst_tables(name, noise):
                for positions in _window_groups(table.windows):
                    codes = table.codes[positions]
                    probabilities = table.probabilities[positions]
                    burst_windows += bool(
                        (codes == KIND_CODES[HEATING_BURST]).any())
                    assert _same_float(
                        _window_log10_success(codes, probabilities,
                                              multiplier),
                        reference_window_log10_success(codes, probabilities,
                                                       multiplier))
        assert burst_windows > 1

    def test_random_windows(self):
        rng = np.random.default_rng(2021)
        outcomes = {"rescaled": 0, "-inf": 0, "was_nan": 0, "certain": 0,
                    "zero": 0}
        for _ in range(1500):
            codes, probabilities, multiplier = random_window(rng)
            actual = _window_log10_success(codes, probabilities, multiplier)
            expected = reference_window_log10_success(codes, probabilities,
                                                      multiplier)
            assert _same_float(actual, expected), (codes, probabilities,
                                                   multiplier)
            outcomes["rescaled"] += float("-inf") < expected < -150.0
            outcomes["-inf"] += expected == float("-inf")
            outcomes["was_nan"] += gave_nan_before_zero_exemption(
                codes, probabilities, multiplier)
            outcomes["certain"] += bool((probabilities == 1.0).any())
            outcomes["zero"] += bool((probabilities == 0.0).any())
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("multiplier", [1.0, 1.5, 1e3, 1e300])
    def test_zero_probability_site_changes_nothing(self, multiplier):
        """An error site that never fails leaves a window's log10 success
        as it is, also behind bursts whose ``multiplier ** k`` overflows."""
        burst, pauli = KIND_CODES[HEATING_BURST], KIND_CODES[PAULI_1Q]
        error_codes = [KIND_CODES[kind] for kind in SITE_KINDS
                       if kind != HEATING_BURST]
        # (window codes, probabilities, where the site goes, its kind)
        cases = [(np.array([burst, burst, pauli]),
                  np.array([0.5, 0.5, 1e-3]), 3, pauli)]
        rng = np.random.default_rng(31)
        for _ in range(150):
            codes, probabilities, _ = random_window(rng)
            cases.append((codes, probabilities,
                          int(rng.integers(len(codes) + 1)),
                          rng.choice(error_codes)))
        for codes, probabilities, site, code in cases:
            padded_codes = np.insert(codes, site, code)
            padded = np.insert(probabilities, site, 0.0)
            for window_log10 in (_window_log10_success,
                                 reference_window_log10_success):
                assert window_log10(padded_codes, padded, multiplier) == \
                    window_log10(codes, probabilities, multiplier), (
                        codes, probabilities, site)


class TestSpectatorsMatchScan:
    """The neighbourhood enumeration returns the scan's tuple."""

    @pytest.mark.parametrize("max_distance", [1, 2, 3, 5])
    def test_tilt_head_windows(self, max_distance):
        device = TiltDevice(num_qubits=20, head_size=8)
        last = device.num_head_positions - 1
        for position in (0, 1, last // 2, last - 1, last):
            window = device.window(position)
            for a, b in itertools.permutations(window, 2):
                assert chain_spectators((a, b), window, max_distance) == \
                    reference_chain_spectators((a, b), window, max_distance)

    @pytest.mark.parametrize("max_distance", [1, 3, 4])
    def test_ideal_chain(self, max_distance):
        chain = range(16)
        for a, b in itertools.permutations(chain, 2):
            assert chain_spectators((a, b), chain, max_distance) == \
                reference_chain_spectators((a, b), chain, max_distance)
        for qubit in chain:
            assert chain_spectators((qubit,), chain, max_distance) == \
                reference_chain_spectators((qubit,), chain, max_distance)

    @pytest.mark.parametrize("max_distance", [1, 3])
    def test_qccd_traps(self, max_distance):
        rng = random.Random(3)
        for size in (2, 3, 5, 9):
            ions = rng.sample(range(30), size)
            for operands in itertools.permutations(ions, 2):
                assert QccdSimulator._trap_spectators(
                    ions, operands, max_distance
                ) == reference_trap_spectators(ions, operands, max_distance)


# ----------------------------------------------------------------------
# Lowering references: the three-circuit lowering the streaming pass
# replaced (a CX-level circuit, a native circuit, then a merged one)
# ----------------------------------------------------------------------
def _reference_one_qubit_to_native(gate: Gate):
    (q,) = gate.qubits
    name = gate.name
    if name == "id":
        return
    if name in ("rx", "ry", "rz"):
        yield gate
        return
    if name == "x":
        yield Gate("rx", (q,), (math.pi,))
    elif name == "y":
        yield Gate("ry", (q,), (math.pi,))
    elif name == "z":
        yield Gate("rz", (q,), (math.pi,))
    elif name == "h":
        yield Gate("rz", (q,), (math.pi,))
        yield Gate("ry", (q,), (math.pi / 2,))
    elif name == "s":
        yield Gate("rz", (q,), (math.pi / 2,))
    elif name == "sdg":
        yield Gate("rz", (q,), (-math.pi / 2,))
    elif name == "t":
        yield Gate("rz", (q,), (math.pi / 4,))
    elif name == "tdg":
        yield Gate("rz", (q,), (-math.pi / 4,))
    elif name == "sx":
        yield Gate("rx", (q,), (math.pi / 2,))
    elif name == "p":
        yield Gate("rz", (q,), (gate.params[0],))
    elif name == "u3":
        theta, phi, lam = gate.params
        yield Gate("rz", (q,), (lam,))
        yield Gate("ry", (q,), (theta,))
        yield Gate("rz", (q,), (phi,))
    else:
        raise AssertionError(f"no native form for {name!r}")


def _reference_cx_to_native(control: int, target: int):
    yield Gate("ry", (control,), (math.pi / 2,))
    yield Gate("xx", (control, target), (math.pi / 4,))
    yield Gate("rx", (control,), (math.pi / 2,))
    yield Gate("rx", (target,), (math.pi / 2,))
    yield Gate("ry", (control,), (-math.pi / 2,))


def _reference_two_qubit_to_cx(gate: Gate):
    name = gate.name
    q1, q2 = gate.qubits
    if name == "cx":
        yield gate
    elif name == "cz":
        yield Gate("h", (q2,))
        yield Gate("cx", (q1, q2))
        yield Gate("h", (q2,))
    elif name == "swap":
        yield Gate("cx", (q1, q2))
        yield Gate("cx", (q2, q1))
        yield Gate("cx", (q1, q2))
    elif name == "cp":
        theta = gate.params[0]
        yield Gate("p", (q1,), (theta / 2,))
        yield Gate("cx", (q1, q2))
        yield Gate("p", (q2,), (-theta / 2,))
        yield Gate("cx", (q1, q2))
        yield Gate("p", (q2,), (theta / 2,))
    elif name == "rzz":
        theta = gate.params[0]
        yield Gate("cx", (q1, q2))
        yield Gate("rz", (q2,), (theta,))
        yield Gate("cx", (q1, q2))
    elif name == "rxx":
        theta = gate.params[0]
        yield Gate("h", (q1,))
        yield Gate("h", (q2,))
        yield Gate("cx", (q1, q2))
        yield Gate("rz", (q2,), (theta,))
        yield Gate("cx", (q1, q2))
        yield Gate("h", (q1,))
        yield Gate("h", (q2,))
    elif name == "xx":
        yield from _reference_two_qubit_to_cx(
            Gate("rxx", (q1, q2), (-2.0 * gate.params[0],)))
    else:
        raise AssertionError(f"no CX form for {name!r}")


def _reference_ccx_to_cx(c1: int, c2: int, target: int):
    yield Gate("h", (target,))
    yield Gate("cx", (c2, target))
    yield Gate("tdg", (target,))
    yield Gate("cx", (c1, target))
    yield Gate("t", (target,))
    yield Gate("cx", (c2, target))
    yield Gate("tdg", (target,))
    yield Gate("cx", (c1, target))
    yield Gate("t", (c2,))
    yield Gate("t", (target,))
    yield Gate("h", (target,))
    yield Gate("cx", (c1, c2))
    yield Gate("t", (c1,))
    yield Gate("tdg", (c2,))
    yield Gate("cx", (c1, c2))


def reference_decompose_to_cx(circuit: Circuit, *,
                              keep_xx: bool = False) -> Circuit:
    out = Circuit(circuit.num_qubits, f"{circuit.name}_cx")
    for gate in circuit:
        if gate.name in ("measure", "barrier") or gate.num_qubits == 1:
            out.append(gate)
        elif gate.name == "ccx":
            out.extend(_reference_ccx_to_cx(*gate.qubits))
        elif gate.name == "xx" and keep_xx:
            out.append(gate)
        else:
            out.extend(_reference_two_qubit_to_cx(gate))
    return out


def reference_decompose_to_native(circuit: Circuit) -> Circuit:
    """A CX-level circuit, then each of its gates rewritten natively."""
    out = Circuit(circuit.num_qubits, f"{circuit.name}_native")
    for gate in reference_decompose_to_cx(circuit, keep_xx=True):
        if gate.name in ("measure", "barrier", "xx"):
            out.append(gate)
        elif gate.name == "cx":
            out.extend(_reference_cx_to_native(*gate.qubits))
        else:
            out.extend(_reference_one_qubit_to_native(gate))
    return out


def reference_merge_adjacent_rotations(circuit: Circuit, *,
                                       angle_tolerance: float = 1e-12
                                       ) -> Circuit:
    """A third circuit, with a new gate for every fused rotation."""
    out = Circuit(circuit.num_qubits, circuit.name)
    pending: dict[int, Gate] = {}

    def flush(qubit: int) -> None:
        gate = pending.pop(qubit, None)
        if gate is None:
            return
        angle = math.remainder(gate.params[0], 2 * math.pi)
        if abs(angle) > angle_tolerance:
            out.append(Gate(gate.name, gate.qubits, (angle,)))

    for gate in circuit:
        if gate.name in ("rx", "ry", "rz"):
            (q,) = gate.qubits
            held = pending.get(q)
            if held is not None and held.name == gate.name:
                pending[q] = Gate(gate.name, gate.qubits,
                                  (held.params[0] + gate.params[0],))
                continue
            flush(q)
            pending[q] = gate
            continue
        for q in gate.qubits:
            flush(q)
        out.append(gate)
    for q in list(pending):
        flush(q)
    return out


def reference_lower(circuit: Circuit, *, strip_barriers: bool,
                    merge_rotations: bool) -> Circuit:
    working = circuit.without(["barrier"]) if strip_barriers else circuit
    native = reference_decompose_to_native(working)
    return (reference_merge_adjacent_rotations(native) if merge_rotations
            else native)


def assert_same_gates(actual: Circuit, expected: Circuit) -> None:
    """Gate for gate: name, qubits and params (with ``==``, all floats)."""
    assert actual.name == expected.name
    assert actual.num_qubits == expected.num_qubits
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert (got.name, got.qubits, got.params) == (
            want.name, want.qubits, want.params), index
        assert all(type(param) is float for param in got.params), index


#: Angles that fuse to exact multiples of 2*pi, fall under the merge
#: tolerance, sit on the remainder's boundaries or lie outside
#: [-pi, pi], so the remainder differs from the angle.
_SPECIAL_ANGLES = (0.0, 1e-13, math.pi, -math.pi, math.pi / 2,
                   2 * math.pi, 3 * math.pi / 2, -7.5)


@functools.lru_cache(maxsize=None)
def random_source_circuit(seed: int, num_qubits: int = 5,
                          num_gates: int = 60) -> Circuit:
    """Every gate of :data:`GATE_SPECS`, with partial and full barriers."""
    rng = random.Random(seed)
    names = sorted(GATE_SPECS)
    circuit = Circuit(num_qubits, f"source{seed}")
    for _ in range(num_gates):
        name = rng.choice(names)
        arity, num_params = GATE_SPECS[name]
        if arity < 0:
            arity = rng.randint(1, num_qubits)
        params = tuple(rng.choice(_SPECIAL_ANGLES) if rng.random() < 0.3
                       else rng.uniform(-10.0, 10.0)
                       for _ in range(num_params))
        circuit.append(Gate(name, tuple(rng.sample(range(num_qubits),
                                                   arity)), params))
    return circuit


@functools.lru_cache(maxsize=None)
def _suite_circuit(name: str, scale: str) -> Circuit:
    return build_workload(name, scale)


LOWERING_SETTINGS = [(strip, merge) for strip in (True, False)
                     for merge in (True, False)]

#: Every setting at small scale; paper scale under the settings every
#: toolchain lowers with (the ``lower_to_native`` defaults).
SUITE_LOWERINGS = ([("small", *setting) for setting in LOWERING_SETTINGS]
                   + [("paper", True, True)])

RANDOM_SEEDS = range(60)


class TestLoweringMatchesReference:
    @pytest.mark.parametrize("scale,strip_barriers,merge_rotations",
                             SUITE_LOWERINGS)
    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_suite(self, name, scale, strip_barriers, merge_rotations):
        circuit = _suite_circuit(name, scale)
        assert_same_gates(
            lower_to_native(circuit, strip_barriers=strip_barriers,
                            merge_rotations=merge_rotations),
            reference_lower(circuit, strip_barriers=strip_barriers,
                            merge_rotations=merge_rotations))

    @pytest.mark.parametrize("strip_barriers,merge_rotations",
                             LOWERING_SETTINGS)
    def test_random_circuits(self, strip_barriers, merge_rotations):
        for seed in RANDOM_SEEDS:
            circuit = random_source_circuit(seed)
            assert_same_gates(
                lower_to_native(circuit, strip_barriers=strip_barriers,
                                merge_rotations=merge_rotations),
                reference_lower(circuit, strip_barriers=strip_barriers,
                                merge_rotations=merge_rotations))

    def test_random_circuits_use_every_gate(self):
        used = set()
        for seed in RANDOM_SEEDS:
            used.update(gate.name for gate in random_source_circuit(seed))
        assert used == set(GATE_SPECS)

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-3, 0.5])
    def test_merge_adjacent_rotations(self, tolerance):
        for seed in RANDOM_SEEDS[:30]:
            native = reference_decompose_to_native(random_source_circuit(seed))
            assert_same_gates(
                merge_adjacent_rotations(native, angle_tolerance=tolerance),
                reference_merge_adjacent_rotations(
                    native, angle_tolerance=tolerance))

    @pytest.mark.parametrize("keep_xx", [False, True])
    def test_decompose_to_cx(self, keep_xx):
        for seed in RANDOM_SEEDS[:30]:
            circuit = random_source_circuit(seed)
            assert_same_gates(decompose_to_cx(circuit, keep_xx=keep_xx),
                              reference_decompose_to_cx(circuit,
                                                        keep_xx=keep_xx))


# ----------------------------------------------------------------------
# Compile bookkeeping references: counts, depth and schedule validation
# ----------------------------------------------------------------------
def reference_depth(circuit: Circuit, *, two_qubit_only: bool = False) -> int:
    level = [0] * circuit.num_qubits
    for gate in circuit:
        if gate.name == "barrier":
            top = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = top
            continue
        counts = 0 if (two_qubit_only and not gate.is_two_qubit) else 1
        top = max(level[q] for q in gate.qubits) + counts
        for q in gate.qubits:
            level[q] = top
    return max(level)


def reference_collect_stats(routing: RoutingResult, program) -> CompileStats:
    """Four counting walks plus :func:`reference_depth`."""
    circuit = program.circuit
    return CompileStats(
        num_gates=sum(1 for gate in circuit if gate.name != "barrier"),
        num_two_qubit_gates=sum(1 for gate in circuit if gate.is_two_qubit),
        num_one_qubit_gates=sum(1 for gate in circuit
                                if gate.num_qubits == 1 and gate.is_unitary),
        num_other_ops=sum(1 for gate in circuit
                          if not gate.is_unitary and gate.name != "barrier"),
        num_swaps=routing.num_swaps,
        num_opposing_swaps=routing.num_opposing_swaps,
        opposing_swap_ratio=routing.opposing_swap_ratio,
        max_swap_span=routing.max_swap_span(),
        num_moves=program.num_moves,
        move_distance_ions=program.move_distance_ions,
        move_distance_um=program.move_distance_um,
        depth=reference_depth(circuit),
        time_decompose_s=0.0,
        time_swap_s=0.0,
        time_schedule_s=0.0,
    )


def reference_validate(program) -> None:
    """A window walk, a sorted coverage check, then a dependency walk."""
    scheduled: list[int] = []
    for segment in program.segments:
        window = program.device.window(segment.position)
        for gate_index in segment.gate_indices:
            gate = program.circuit[gate_index]
            if any(q not in window for q in gate.qubits):
                raise SchedulingError("outside window")
            scheduled.append(gate_index)
    if sorted(scheduled) != list(range(len(program.circuit))):
        raise SchedulingError("not covered exactly once")
    last_seen_on_qubit: dict[int, int] = {}
    for gate_index in scheduled:
        for qubit in program.circuit[gate_index].qubits:
            previous = last_seen_on_qubit.get(qubit)
            if previous is not None and previous > gate_index:
                raise SchedulingError("dependency")
            last_seen_on_qubit[qubit] = gate_index


def _validates(check, program) -> bool:
    try:
        check(program)
    except SchedulingError:
        return False
    return True


def scheduled_random_program(seed: int, num_qubits: int = 10,
                             num_gates: int = 120):
    """A scheduled random circuit with narrow barriers and measures, and
    its routing.  Every gate fits under the head, so routing inserts no
    SWAP and the barriers stay narrow."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, f"scheduled{seed}")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.4:
            a = rng.randrange(num_qubits - 3)
            pair = (a, a + rng.randint(1, 3))
            if rng.random() < 0.5:
                pair = pair[::-1]
            circuit.append(Gate("xx", pair, (rng.uniform(-1, 1),)))
        elif roll < 0.8:
            circuit.append(Gate(rng.choice(["rx", "ry", "rz"]),
                                (rng.randrange(num_qubits),),
                                (rng.uniform(-1, 1),)))
        elif roll < 0.9:
            low = rng.randrange(num_qubits - 2)
            circuit.append(Gate("barrier",
                                tuple(range(low, low + rng.randint(1, 3)))))
        else:
            circuit.append(Gate("measure", (rng.randrange(num_qubits),)))
    device = TiltDevice(num_qubits=num_qubits, head_size=4)
    routing = LinqSwapInserter(device).route(circuit)
    return routing, TapeScheduler(device).schedule(routing.circuit)


def _mutated_schedule(program, rng: random.Random):
    """*program* with one random fault: indices swapped, moved, dropped
    or duplicated, or a segment moved to another head position."""
    segments = [list(segment.gate_indices) for segment in program.segments]
    positions = [segment.position for segment in program.segments]
    kind = rng.randrange(5)
    s1, s2 = rng.randrange(len(segments)), rng.randrange(len(segments))
    i1 = rng.randrange(len(segments[s1]))
    i2 = rng.randrange(len(segments[s2]))
    if kind == 0:
        segments[s1][i1], segments[s2][i2] = segments[s2][i2], segments[s1][i1]
    elif kind == 1:
        segments[s2].insert(i2, segments[s1].pop(i1))
    elif kind == 2:
        segments[s1].pop(i1)
    elif kind == 3:
        segments[s2].insert(i2, segments[s1][i1])
    else:
        positions[s1] = rng.choice(program.device.head_positions())
    return dataclasses.replace(program, segments=[
        TapeSegment(position, tuple(indices))
        for position, indices in zip(positions, segments)])


class TestCompileBookkeepingMatchesReference:
    @pytest.mark.parametrize("name", SMALL_SUITE + [BARRIER_CASE])
    def test_suite_stats(self, name):
        circuit = _oracle_circuit(name)
        device = _small_device(circuit)
        config = CompilerConfig(strip_barriers=name != BARRIER_CASE)
        compiled = LinQCompiler(device, config).compile(circuit)
        program = compiled.program
        assert collect_stats(compiled.routing, program, time_decompose_s=0.0,
                             time_swap_s=0.0, time_schedule_s=0.0
                             ) == reference_collect_stats(compiled.routing,
                                                          program)
        assert _validates(reference_validate, program)
        program.validate()

    @pytest.mark.parametrize("two_qubit_only", [False, True])
    def test_depth_of_random_circuits(self, two_qubit_only):
        for seed in range(100):
            circuit = random_source_circuit(seed)
            assert circuit.depth(two_qubit_only=two_qubit_only) == (
                reference_depth(circuit, two_qubit_only=two_qubit_only))

    def test_random_schedules(self):
        outcomes = set()
        for seed in range(20):
            routing, program = scheduled_random_program(seed)
            assert collect_stats(routing, program, time_decompose_s=0.0,
                                 time_swap_s=0.0, time_schedule_s=0.0
                                 ) == reference_collect_stats(routing, program)
            assert _validates(reference_validate, program)
            rng = random.Random(seed)
            for _ in range(40):
                mutated = _mutated_schedule(program, rng)
                expected = _validates(reference_validate, mutated)
                assert _validates(ExecutableProgram.validate,
                                  mutated) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}


# ----------------------------------------------------------------------
# Spec keys: the batch memo against the one-payload encoding
# ----------------------------------------------------------------------
def _reference_dataclass_payload(value):
    if value is None:
        return None
    payload = dataclasses.asdict(value)
    payload["__type__"] = type(value).__name__
    return payload


def reference_spec_key(spec: JobSpec) -> str:
    """The SHA-256 of the whole spec's canonical JSON, encoded at once."""
    payload = {
        "backend": spec.backend,
        "circuit": {
            "num_qubits": spec.circuit.num_qubits,
            "name": spec.circuit.name,
            "gates": [[gate.name, list(gate.qubits), list(gate.params)]
                      for gate in spec.circuit],
        },
        "device": _reference_dataclass_payload(spec.device),
        "config": _reference_dataclass_payload(
            None if spec.config == CompilerConfig() else spec.config),
        "noise": _reference_dataclass_payload(spec.noise),
        "simulate": bool(spec.simulate),
    }
    if spec.shots:
        payload["sampling"] = {"shots": spec.shots, "seed": spec.seed,
                               "shot_offset": spec.shot_offset}
    if spec.scenario != "baseline":
        payload["scenario"] = _reference_dataclass_payload(
            get_scenario(spec.scenario))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _repeating_batch() -> list[JobSpec]:
    """Specs that share circuits across backends, shots and scenarios,
    with an equal circuit under a second object."""
    bv, qft = bv_workload(8), qft_workload(6)
    noise = NoiseParameters.paper_defaults()
    specs = []
    for circuit in (bv, qft, bv_workload(8)):
        n = circuit.num_qubits
        tilt = TiltDevice(num_qubits=n, head_size=4)
        specs += [
            JobSpec(circuit=circuit, device=tilt),
            JobSpec(circuit=circuit, device=tilt, noise=noise,
                    config=CompilerConfig(max_swap_len=2)),
            JobSpec(circuit=circuit, device=tilt, simulate=False),
            JobSpec(circuit=circuit, device=tilt, shots=64, seed=3),
            JobSpec(circuit=circuit, device=tilt, shots=32, seed=3,
                    shot_offset=32, scenario="crosstalk"),
            JobSpec(circuit=circuit, device=tilt, scenario="leakage"),
            JobSpec(circuit=circuit,
                    device=QccdDevice(num_qubits=n, trap_capacity=3),
                    backend="qccd"),
            JobSpec(circuit=circuit,
                    device=IdealTrappedIonDevice(num_qubits=n),
                    backend="ideal", shots=16),
        ]
    return specs


class TestSpecKeyMemoMatchesReference:
    def test_golden_specs(self):
        for spec in representative_specs().values():
            expected = reference_spec_key(spec)
            assert spec_key(spec) == expected
            assert spec_key(spec, {}) == expected

    def test_batch_repeating_circuits(self):
        specs = _repeating_batch()
        circuits: dict[int, bytes] = {}
        assert [spec_key(spec, circuits) for spec in specs] == [
            reference_spec_key(spec) for spec in specs]
        assert len(circuits) == 3  # one encoding per circuit object

    def test_engine_keys(self):
        specs = [spec for spec in _repeating_batch()
                 if spec.backend == "ideal"]
        results = ExecutionEngine(workers=1).run(specs)
        assert [result.key for result in results] == [
            reference_spec_key(spec) for spec in specs]
