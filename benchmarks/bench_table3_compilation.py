"""Table III — LinQ compilation results.

Benchmarks the compiler's two expensive passes (swap insertion, by both
routers, and tape scheduling) per workload and head size — the t_swap /
t_move columns of Table III — plus scheduling at the paper's width, and
prints the full reproduced table (#moves, tape travel, estimated
execution time).
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import table3_report
from repro.arch.tilt import TiltDevice
from repro.compiler.decompose import decompose_to_native, merge_adjacent_rotations
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.schedule import TapeScheduler
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.workloads.suite import build_workload, standard_suite

WORKLOADS = [spec.name for spec in standard_suite()]
HEAD_INDEX = [0, 1]  # small and large head of the active scale

#: Timed rounds per routing and scheduling benchmark.  One call takes
#: milliseconds at small scale, so a single timing is mostly noise; the
#: gated median needs several.
ROUNDS = 15

#: Timed rounds of the paper-width scheduling benchmark (tenths of a
#: second each).
PAPER_WIDTH_ROUNDS = 5

ROUTERS = {"linq": LinqSwapInserter, "baseline": BaselineSwapInserter}


def _device(scale: str, name: str, head_index: int) -> TiltDevice:
    circuit = build_workload(name, scale)
    head = experiments.head_sizes_for(scale, circuit.num_qubits)[head_index]
    return TiltDevice(num_qubits=circuit.num_qubits, head_size=head)


@pytest.mark.parametrize("head_index", HEAD_INDEX)
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_swap_insertion_time(benchmark, router, name, head_index, scale):
    """t_swap: routing time for one router / workload / head size."""
    circuit = build_workload(name, scale)
    device = _device(scale, name, head_index)
    native = merge_adjacent_rotations(decompose_to_native(circuit))
    inserter = ROUTERS[router](device)
    result = benchmark.pedantic(inserter.route, args=(native,),
                                iterations=1, rounds=ROUNDS)
    assert result.circuit.num_gates() >= native.num_gates()


@pytest.mark.parametrize("head_index", HEAD_INDEX)
@pytest.mark.parametrize("name", WORKLOADS)
def test_tape_scheduling_time(benchmark, name, head_index, scale):
    """t_move: scheduling time for one workload / head size.

    The routed circuit is built once, outside the timer; every round
    schedules it with a fresh :class:`TapeScheduler`.
    """
    circuit = build_workload(name, scale)
    device = _device(scale, name, head_index)
    native = merge_adjacent_rotations(decompose_to_native(circuit))
    routed = LinqSwapInserter(device).route(native).circuit
    program = benchmark.pedantic(
        TapeScheduler.schedule,
        setup=lambda: ((TapeScheduler(device), routed), {}),
        iterations=1, rounds=ROUNDS,
    )
    assert program.num_scheduled_gates == len(routed)


def test_tape_scheduling_time_paper_width(benchmark):
    """t_move at the paper's width: QFT-64 under a 16-ion head.

    Scale-independent on purpose: the paper-figures job set schedules
    circuits this wide, where one schedule takes a large fraction of a
    second, while the small-scale cases above take milliseconds.  As
    there, the routed circuit is built once, outside the timer.
    """
    circuit = build_workload("QFT", "paper")
    device = TiltDevice(num_qubits=circuit.num_qubits, head_size=16)
    native = merge_adjacent_rotations(decompose_to_native(circuit))
    routed = LinqSwapInserter(device).route(native).circuit
    program = benchmark.pedantic(
        TapeScheduler.schedule,
        setup=lambda: ((TapeScheduler(device), routed), {}),
        iterations=1, rounds=PAPER_WIDTH_ROUNDS,
    )
    assert program.num_scheduled_gates == len(routed)


def test_table3_report_and_trends(scale):
    """A wider head needs fewer moves and shorter travel for every workload."""
    rows = experiments.table3(scale)
    by_workload: dict[str, list] = {}
    for row in rows:
        by_workload.setdefault(row.workload, []).append(row)
    for name, pair in by_workload.items():
        small_head, large_head = sorted(pair, key=lambda r: r.head_size)
        assert large_head.num_moves <= small_head.num_moves, name
        assert large_head.move_distance_um <= small_head.move_distance_um, name
    print()
    print(table3_report(scale))


def test_full_pipeline_compile(benchmark, scale):
    """End-to-end compile of the heaviest workload (QFT) at the small head."""
    circuit = build_workload("QFT", scale)
    device = _device(scale, "QFT", 0)
    compiler = LinQCompiler(device, CompilerConfig())
    result = benchmark.pedantic(compiler.compile, args=(circuit,),
                                iterations=1, rounds=1)
    result.program.validate()


def test_engine_batch_compile(benchmark, scale, noise):
    """The same Table III jobs submitted as one engine batch."""
    from repro.analysis.experiments import head_sizes_for
    from repro.exec import ExecutionEngine, JobSpec

    specs = []
    for name in WORKLOADS:
        circuit = build_workload(name, scale)
        for head in head_sizes_for(scale, circuit.num_qubits):
            device = TiltDevice(num_qubits=circuit.num_qubits, head_size=head)
            specs.append(JobSpec(circuit=circuit, device=device, noise=noise))

    engine = ExecutionEngine(workers=1)
    results = benchmark.pedantic(engine.run, args=(specs,),
                                 iterations=1, rounds=1)
    assert len(results) == len(specs)
    benchmark.extra_info["engine"] = engine.stats.summary()
