"""Experiment drivers: one function per figure / table of the paper.

Every driver takes a ``scale`` argument:

* ``"paper"`` — the exact workload sizes of the paper (64/78-qubit circuits,
  head sizes 16 and 32).  A full paper-scale run of every experiment takes
  several seconds, most of it pure-Python compilation.
* ``"small"`` — the same circuit families at roughly one quarter of the
  width (16/20 qubits, head sizes 4 and 8), preserving the head/chain ratio
  so every qualitative effect survives.  This is the default for the test
  suite and the benchmark harness.

The scale can also be forced globally through the ``TILT_REPRO_SCALE``
environment variable, which is how ``pytest benchmarks/`` is switched to
paper scale.  The paper-scale numbers are what
``python -m repro.analysis.report --scale paper`` prints, and the paper
rows of ``tests/fixtures/spec_keys.json`` pin their digests.

All drivers route through the :mod:`repro.exec` batch engine: each figure
or table assembles its full set of (circuit, device, config, noise) jobs
and submits them in one batch, so the engine can deduplicate and cache
points and — with ``workers`` > 1 or ``TILT_REPRO_WORKERS`` set — compile
and simulate independent points concurrently on a process pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig
from repro.core.comparison import (
    ArchitectureComparison,
    comparison_from_results,
    comparison_specs,
    tilt_vs_qccd_ratios,
)
from repro.core.sweep import SweepPoint, default_max_swap_lengths, sweep_job
from repro.exceptions import ReproError
from repro.exec import ExecutionEngine, JobSpec, run_jobs
from repro.noise.parameters import NoiseParameters
from repro.workloads.suite import (
    build_workload,
    routing_suite,
    standard_suite,
    suite_qubits,
    table2_rows,
)

#: Environment variable that forces the experiment scale.
SCALE_ENV_VAR = "TILT_REPRO_SCALE"

#: Compiler configuration used for the swap-insertion studies (Figs. 6/7).
#: The trivial initial mapping is used so both routers start from the same
#: placement and the comparison isolates the swap-insertion strategy itself.
ROUTING_STUDY_CONFIG = CompilerConfig(mapper="trivial")


def resolve_scale(scale: str | None = None) -> str:
    """Pick the experiment scale: explicit argument, env var, or 'small'."""
    chosen = scale or os.environ.get(SCALE_ENV_VAR, "small")
    if chosen not in ("small", "paper"):
        raise ReproError(
            f"unknown scale {chosen!r}; expected 'small' or 'paper'"
        )
    return chosen


def head_sizes_for(scale: str, num_qubits: int) -> tuple[int, int]:
    """The two head sizes evaluated at a given scale (paper: 16 and 32)."""
    if scale == "paper":
        return (16, 32)
    quarter = max(4, num_qubits // 4)
    half = max(quarter + 1, num_qubits // 2)
    return (quarter, half)


def primary_head_size(scale: str, num_qubits: int) -> int:
    """The head size used for the single-configuration studies (paper: 16)."""
    return head_sizes_for(scale, num_qubits)[0]


def device_for(scale: str, workload_name: str) -> TiltDevice:
    """The TILT device a workload is compiled to at the given scale."""
    num_qubits = suite_qubits(workload_name, scale)
    return TiltDevice(num_qubits=num_qubits,
                      head_size=primary_head_size(scale, num_qubits))


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
def table2(scale: str | None = None) -> list[dict[str, object]]:
    """Benchmark characteristics (Table II)."""
    return table2_rows(resolve_scale(scale))


# ----------------------------------------------------------------------
# Figure 6 — baseline vs LinQ swap insertion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure6Row:
    """One (workload, router) cell of Figure 6."""

    workload: str
    router: str
    num_swaps: int
    num_opposing_swaps: int
    opposing_swap_ratio: float
    num_moves: int
    success_rate: float
    log10_success_rate: float


def figure6(scale: str | None = None,
            noise_params: NoiseParameters | None = None,
            *, workers: int | None = None,
            engine: ExecutionEngine | None = None) -> list[Figure6Row]:
    """Reproduce Figure 6: swap counts, opposing ratio, moves and success.

    Only the long-distance workloads (BV, QFT, SQRT) are included, exactly
    as in the paper; the other applications need no SWAPs.
    """
    scale = resolve_scale(scale)
    params = noise_params or NoiseParameters.paper_defaults()
    cells: list[tuple[str, str]] = []
    specs: list[JobSpec] = []
    for spec in routing_suite():
        circuit = build_workload(spec.name, scale)
        device = device_for(scale, spec.name)
        for router in ("baseline", "linq"):
            config = ROUTING_STUDY_CONFIG.with_overrides(router=router)
            cells.append((spec.name, router))
            specs.append(sweep_job(circuit, device, config, params,
                                   label=f"{spec.name}/{router}"))
    results = run_jobs(specs, workers=workers, engine=engine)
    rows: list[Figure6Row] = []
    for (workload, router), result in zip(cells, results):
        stats = result.stats
        simulation = result.simulation
        rows.append(
            Figure6Row(
                workload=workload,
                router=router,
                num_swaps=stats.num_swaps,
                num_opposing_swaps=stats.num_opposing_swaps,
                opposing_swap_ratio=stats.opposing_swap_ratio,
                num_moves=stats.num_moves,
                success_rate=simulation.success_rate,
                log10_success_rate=simulation.log10_success_rate,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 7 — MaxSwapLen sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure7Row:
    """One (workload, MaxSwapLen) point of Figure 7."""

    workload: str
    max_swap_len: int
    num_swaps: int
    num_moves: int
    success_rate: float
    log10_success_rate: float


def figure7(scale: str | None = None,
            workloads: tuple[str, ...] | None = None,
            noise_params: NoiseParameters | None = None,
            *, workers: int | None = None,
            engine: ExecutionEngine | None = None) -> list[Figure7Row]:
    """Reproduce Figure 7: success/swaps/moves as MaxSwapLen is restricted.

    The whole figure — every workload at every MaxSwapLen — is one engine
    batch, so all points run concurrently when ``workers`` > 1.
    """
    scale = resolve_scale(scale)
    params = noise_params or NoiseParameters.paper_defaults()
    names = workloads or tuple(spec.name for spec in routing_suite())
    cells: list[tuple[str, int]] = []
    specs: list[JobSpec] = []
    for name in names:
        circuit = build_workload(name, scale)
        device = device_for(scale, name)
        for length in default_max_swap_lengths(device):
            cells.append((name, length))
            specs.append(sweep_job(
                circuit, device,
                ROUTING_STUDY_CONFIG.with_overrides(max_swap_len=length),
                params, label=f"{name}/max_swap_len={length}",
            ))
    results = run_jobs(specs, workers=workers, engine=engine)
    rows: list[Figure7Row] = []
    for (name, length), result in zip(cells, results):
        stats = result.stats
        simulation = result.simulation
        rows.append(
            Figure7Row(
                workload=name,
                max_swap_len=length,
                num_swaps=stats.num_swaps,
                num_moves=stats.num_moves,
                success_rate=simulation.success_rate,
                log10_success_rate=simulation.log10_success_rate,
            )
        )
    return rows


def best_max_swap_len(rows: list[Figure7Row], workload: str) -> Figure7Row:
    """The sweet-spot row of a Figure 7 sweep for one workload."""
    candidates = [row for row in rows if row.workload == workload]
    if not candidates:
        raise ReproError(f"no Figure 7 rows for workload {workload!r}")
    return max(candidates, key=lambda row: row.log10_success_rate)


# ----------------------------------------------------------------------
# Figure 8 — architecture comparison
# ----------------------------------------------------------------------
def figure8(scale: str | None = None,
            workloads: tuple[str, ...] | None = None,
            noise_params: NoiseParameters | None = None,
            *, workers: int | None = None,
            engine: ExecutionEngine | None = None,
            ) -> list[ArchitectureComparison]:
    """Reproduce Figure 8: TILT (two head sizes) vs Ideal TI vs QCCD.

    All architectures of all workloads form one engine batch.
    """
    scale = resolve_scale(scale)
    params = noise_params or NoiseParameters.paper_defaults()
    names = workloads or tuple(spec.name for spec in standard_suite())
    per_workload: list[tuple[str, int]] = []
    specs: list[JobSpec] = []
    for name in names:
        circuit = build_workload(name, scale)
        width = circuit.num_qubits
        head_sizes = head_sizes_for(scale, width)
        if scale == "paper":
            capacities: tuple[int, ...] = (17, 25, 33)
        else:
            capacities = (max(3, width // 4), max(4, width // 3), max(5, width // 2))
        workload_specs = comparison_specs(
            circuit,
            head_sizes=head_sizes,
            qccd_trap_capacities=capacities,
            noise_params=params,
        )
        per_workload.append((name, len(workload_specs)))
        specs.extend(workload_specs)
    results = run_jobs(specs, workers=workers, engine=engine)
    comparisons: list[ArchitectureComparison] = []
    offset = 0
    for name, count in per_workload:
        comparison = comparison_from_results(
            name, results[offset:offset + count]
        )
        comparison.circuit_name = name
        comparisons.append(comparison)
        offset += count
    return comparisons


def headline_ratios(comparisons: list[ArchitectureComparison],
                    scale: str | None = None) -> dict[str, float]:
    """The paper's headline "up to X / on average Y" TILT-vs-QCCD ratios.

    Uses the smallest TILT head size present in each comparison (head 16 at
    paper scale); the *scale* argument is accepted for API symmetry.
    """
    del scale  # the per-comparison label lookup does not need it
    return tilt_vs_qccd_ratios(comparisons)


# ----------------------------------------------------------------------
# Table III — compilation results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table3Row:
    """One (workload, head size) row of Table III."""

    workload: str
    head_size: int
    time_swap_s: float
    time_schedule_s: float
    num_moves: int
    move_distance_um: float
    execution_time_s: float


def table3(scale: str | None = None,
           noise_params: NoiseParameters | None = None,
           *, workers: int | None = None,
           engine: ExecutionEngine | None = None) -> list[Table3Row]:
    """Reproduce Table III: compile times, moves, travel and run time.

    Note the compile-time columns are wall-clock measurements from the run
    that produced each point; a cache-served point reports the timings of
    the run that first executed it.
    """
    scale = resolve_scale(scale)
    params = noise_params or NoiseParameters.paper_defaults()
    cells: list[tuple[str, int]] = []
    specs: list[JobSpec] = []
    for spec in standard_suite():
        circuit = build_workload(spec.name, scale)
        width = circuit.num_qubits
        for head_size in head_sizes_for(scale, width):
            device = TiltDevice(num_qubits=width, head_size=head_size)
            cells.append((spec.name, head_size))
            specs.append(sweep_job(circuit, device, CompilerConfig(), params,
                                   label=f"{spec.name}/head={head_size}"))
    results = run_jobs(specs, workers=workers, engine=engine)
    rows: list[Table3Row] = []
    for (workload, head_size), result in zip(cells, results):
        stats = result.stats
        simulation = result.simulation
        rows.append(
            Table3Row(
                workload=workload,
                head_size=head_size,
                time_swap_s=stats.time_swap_s,
                time_schedule_s=stats.time_schedule_s,
                num_moves=stats.num_moves,
                move_distance_um=stats.move_distance_um,
                execution_time_s=simulation.execution_time_s,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_mapper(scale: str | None = None,
                    workload: str = "QFT",
                    *, workers: int | None = None,
                    engine: ExecutionEngine | None = None,
                    ) -> dict[str, SweepPoint]:
    """Effect of the initial-mapping heuristic on one routing workload."""
    from repro.core.sweep import mapper_sweep

    scale = resolve_scale(scale)
    circuit = build_workload(workload, scale)
    device = device_for(scale, workload)
    return mapper_sweep(circuit, device, workers=workers, engine=engine)


def ablation_lookahead(scale: str | None = None,
                       workload: str = "QFT",
                       *, workers: int | None = None,
                       engine: ExecutionEngine | None = None,
                       ) -> list[SweepPoint]:
    """Effect of the Eq. 1 lookahead window on one routing workload."""
    from repro.core.sweep import lookahead_sweep

    scale = resolve_scale(scale)
    circuit = build_workload(workload, scale)
    device = device_for(scale, workload)
    return lookahead_sweep(circuit, device,
                           base_config=ROUTING_STUDY_CONFIG,
                           workers=workers, engine=engine)
