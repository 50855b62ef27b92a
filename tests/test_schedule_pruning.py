"""Counted scheduler vs the per-position closure scan (Algorithm 2 as written).

The scheduler scores every head position from window extents instead of
running a greedy closure at each one, and runs the winning window's
closure in place instead of replaying it.  It must choose exactly the segments
of the original scan — including the distance and leftmost tie-breaks and
the gate order inside each segment — on the full workload suite and on
random routed circuits.  The scan lives here, as the test oracle.
"""

import pytest

from repro.arch.tilt import TiltDevice
from repro.circuits.dag import FrontierTracker
from repro.circuits.random import random_circuit
from repro.compiler.decompose import decompose_to_native
from repro.compiler.executable import TapeSegment
from repro.compiler.schedule import SchedulerConfig, TapeScheduler
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.workloads.suite import build_workload, standard_suite
from tests.test_dag import complete_many, greedy_closure

WORKLOADS = [spec.name for spec in standard_suite()]

ROUTERS = {"linq": LinqSwapInserter, "baseline": BaselineSwapInserter}


def _routed(circuit, device, router="linq"):
    native = decompose_to_native(circuit.without(["barrier"]))
    return ROUTERS[router](device).route(native).circuit


def exhaustive_segments(routed, device, *, initial_position=None,
                        prefer_near_moves=True):
    """Reference Algorithm 2: the greedy closure at every head position."""
    tracker = FrontierTracker(routed)
    segments = []
    current = initial_position
    while not tracker.is_done():
        best_key = None
        for position in device.head_positions():
            low, high = position, position + device.head_size - 1
            executable = greedy_closure(
                tracker,
                lambda gate, low=low, high=high: all(
                    low <= q <= high for q in gate.qubits)
            )
            near = current is not None and prefer_near_moves
            distance = abs(position - current) if near else 0
            key = (-len(executable), distance, position)
            if best_key is None or key < best_key:
                best_key = key
                best_position, best_executable = position, executable
        assert best_executable, "reference scan stalled"
        complete_many(tracker, best_executable)
        segments.append(TapeSegment(best_position, tuple(best_executable)))
        current = best_position
    return segments


def _schedule(routed, device, **kwargs):
    return TapeScheduler(device, SchedulerConfig(**kwargs)).schedule(routed)


@pytest.mark.parametrize("name", WORKLOADS)
def test_suite_segments_identical(name):
    """Same segments as the exhaustive scan on every Table II workload."""
    circuit = build_workload(name, "small")
    device = TiltDevice(num_qubits=circuit.num_qubits,
                        head_size=max(4, circuit.num_qubits // 4))
    routed = _routed(circuit, device)
    program = _schedule(routed, device)
    assert program.segments == exhaustive_segments(routed, device)


#: (seed, head size, router, initial position) on a 12-qubit tape.
RANDOM_CASES = [
    pytest.param(seed, 4, "linq", None, id=str(seed)) for seed in range(5)
] + [
    pytest.param(seed, head, "linq", None, id=f"head{head}-{seed}")
    for head in (2, 3, 6) for seed in range(3)
] + [
    pytest.param(seed, head, "baseline", None, id=f"baseline-head{head}-{seed}")
    for head in (2, 4, 6) for seed in range(2)
] + [
    pytest.param(seed, head, router, head, id=f"{router}-head{head}-at{head}-{seed}")
    for router in ("linq", "baseline") for head in (3, 4) for seed in range(2)
]


@pytest.mark.parametrize("seed, head_size, router, initial_position",
                         RANDOM_CASES)
def test_random_circuit_segments_identical(seed, head_size, router,
                                           initial_position):
    device = TiltDevice(num_qubits=12, head_size=head_size)
    routed = _routed(random_circuit(12, 60, seed=seed), device, router)
    program = _schedule(routed, device, initial_position=initial_position)
    assert program.segments == exhaustive_segments(
        routed, device, initial_position=initial_position)


@pytest.mark.parametrize("prefer_near", [True, False])
def test_tie_break_modes_identical(prefer_near):
    """Equivalence holds with and without the travel-distance tie-break."""
    circuit = build_workload("QFT", "small")
    device = TiltDevice(num_qubits=circuit.num_qubits, head_size=4)
    routed = _routed(circuit, device)
    program = _schedule(routed, device, prefer_near_moves=prefer_near)
    assert program.segments == exhaustive_segments(
        routed, device, prefer_near_moves=prefer_near)


def test_initial_position_identical():
    circuit = build_workload("BV", "small")
    device = TiltDevice(num_qubits=circuit.num_qubits, head_size=4)
    routed = _routed(circuit, device)
    position = device.num_head_positions // 2
    program = _schedule(routed, device, initial_position=position)
    assert program.segments == exhaustive_segments(
        routed, device, initial_position=position)
