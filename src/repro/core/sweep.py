"""Parameter sweeps (Figure 7 and the ablation studies).

The central sweep is over ``MaxSwapLen``: restricting the span of inserted
SWAPs below the maximum executable span costs a few extra SWAPs but gives
the tape-movement scheduler more freedom, and somewhere in between lies the
success-rate sweet spot (Figure 7).  :func:`find_best_max_swap_len` automates
the paper's "iterate the LinQ procedure to find the best choice" loop.

Every sweep routes through the :mod:`repro.exec` engine: the per-point
compile+simulate jobs are declarative :class:`~repro.exec.JobSpec` objects,
so points are deduplicated, cached across invocations, and optionally fanned
out over a process pool (``workers`` > 1).  ``workers=1`` — the default —
is a fully serial, deterministic path producing bit-identical results.
``engine=`` runs a sweep on a given
:class:`~repro.exec.ExecutionEngine` (and whatever backend it was built
with) instead of the shared one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.device import DeviceSpec
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import CompilerConfig
from repro.exec import ExecutionEngine, JobResult, JobSpec, run_jobs
from repro.exec.jobs import BASELINE_SCENARIO
from repro.exceptions import ReproError
from repro.noise.parameters import NoiseParameters


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep and its measured outcomes.

    ``value`` is the numeric parameter setting; ``label`` is the
    human-readable form (for categorical sweeps such as the mapper
    ablation, ``label`` carries the actual category name and ``value`` is
    just the ordinal position).
    """

    parameter: str
    value: float
    num_swaps: int
    num_opposing_swaps: int
    num_moves: int
    move_distance_um: float
    success_rate: float
    log10_success_rate: float
    execution_time_s: float
    label: str = ""


def point_spec(circuit: Circuit, device: DeviceSpec,
               config: CompilerConfig | None, params: NoiseParameters,
               *, backend: str = "tilt", scenario: str = BASELINE_SCENARIO,
               shots: int = 0, seed: int = 0, simulate: bool = True,
               label: str = "") -> JobSpec:
    """The engine job for one evaluated point of a sweep or search.

    This is the single place that turns "one configuration" into a
    :class:`JobSpec`: every sweep in this module and every
    :mod:`repro.search` candidate goes through it, so they produce
    byte-identical specs (hence shared cache keys) for equal
    configurations.  The compiler configuration only applies to the
    ``"tilt"`` backend; it is dropped for the others so a QCCD/ideal
    point never splits the cache on an unused knob.
    """
    return JobSpec(circuit=circuit, device=device, backend=backend,
                   config=config if backend == "tilt" else None,
                   noise=params, simulate=simulate, shots=shots, seed=seed,
                   scenario=scenario, label=label)


def sweep_job(circuit: Circuit, device: TiltDevice, config: CompilerConfig,
              params: NoiseParameters, label: str = "",
              scenario: str = BASELINE_SCENARIO) -> JobSpec:
    """The engine job for one sweep point (compile + simulate on TILT)."""
    return point_spec(circuit, device, config, params, scenario=scenario,
                      label=label)


def override_sweep_specs(circuit: Circuit, device: TiltDevice,
                         base_config: CompilerConfig,
                         params: NoiseParameters, field: str,
                         values: Sequence[object],
                         labels: Sequence[str] | None = None,
                         scenario: str = BASELINE_SCENARIO) -> list[JobSpec]:
    """One spec per *field* override — the shared sweep-point builder.

    Every sweep in this module is "the same job at each value of one
    compiler knob"; this helper builds that spec list in one place
    (labels default to ``field=value``).
    """
    if labels is None:
        labels = [f"{field}={value:g}" if isinstance(value, (int, float))
                  else f"{field}={value}" for value in values]
    return [
        sweep_job(circuit, device,
                  base_config.with_overrides(**{field: value}), params,
                  label=label, scenario=scenario)
        for value, label in zip(values, labels)
    ]


def point_from_result(result: JobResult, parameter: str, value: float,
                      label: str = "") -> SweepPoint:
    """Convert one finished engine job into a :class:`SweepPoint`."""
    stats = result.stats
    simulation = result.simulation
    if stats is None or simulation is None:
        raise ReproError(
            f"sweep job {result.label or result.key} returned no "
            "compile/simulation outcome"
        )
    return SweepPoint(
        parameter=parameter,
        value=value,
        num_swaps=stats.num_swaps,
        num_opposing_swaps=stats.num_opposing_swaps,
        num_moves=stats.num_moves,
        move_distance_um=stats.move_distance_um,
        success_rate=simulation.success_rate,
        log10_success_rate=simulation.log10_success_rate,
        execution_time_s=simulation.execution_time_s,
        label=label or f"{parameter}={value:g}",
    )


def _run_sweep(specs: list[JobSpec], parameter: str, values: list[float],
               labels: list[str] | None = None, *,
               workers: int | None, engine: ExecutionEngine | None,
               ) -> list[SweepPoint]:
    results = run_jobs(specs, workers=workers, engine=engine)
    labels = labels or ["" for _ in values]
    return [
        point_from_result(result, parameter, value, label)
        for result, value, label in zip(results, values, labels)
    ]


def default_max_swap_lengths(device: TiltDevice) -> list[int]:
    """The MaxSwapLen values Figure 7 sweeps for one device.

    ``head_size - 1`` (the maximum executable span) down to
    ``head_size / 2`` — the single definition every sweep, search space,
    benchmark and example uses for the Figure 7 range.
    """
    return list(range(device.max_gate_span, device.head_size // 2 - 1, -1))


def max_swap_len_sweep(
    circuit: Circuit,
    device: TiltDevice,
    lengths: list[int] | None = None,
    *,
    base_config: CompilerConfig | None = None,
    noise_params: NoiseParameters | None = None,
    scenario: str = BASELINE_SCENARIO,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> list[SweepPoint]:
    """Compile and simulate *circuit* once per MaxSwapLen value (Fig. 7).

    ``lengths`` defaults to ``head_size - 1`` down to ``head_size / 2``, the
    range plotted in Figure 7.  ``scenario`` runs every point under a
    registered correlated-noise scenario; ``workers`` fans the points out
    over a process pool; ``engine`` overrides the shared execution engine.
    """
    if lengths is None:
        lengths = default_max_swap_lengths(device)
    specs = override_sweep_specs(
        circuit, device, base_config or CompilerConfig(),
        noise_params or NoiseParameters.paper_defaults(),
        "max_swap_len", lengths, scenario=scenario,
    )
    return _run_sweep(specs, "max_swap_len", [float(v) for v in lengths],
                      workers=workers, engine=engine)


def find_best_max_swap_len(
    circuit: Circuit,
    device: TiltDevice,
    lengths: list[int] | None = None,
    *,
    base_config: CompilerConfig | None = None,
    noise_params: NoiseParameters | None = None,
    scenario: str = BASELINE_SCENARIO,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> SweepPoint:
    """The sweep point with the highest success rate (paper Section IV-C)."""
    points = max_swap_len_sweep(
        circuit, device, lengths,
        base_config=base_config, noise_params=noise_params,
        scenario=scenario, workers=workers, engine=engine,
    )
    return max(points, key=lambda point: point.log10_success_rate)


def alpha_sweep(
    circuit: Circuit,
    device: TiltDevice,
    alphas: list[float] | None = None,
    *,
    base_config: CompilerConfig | None = None,
    noise_params: NoiseParameters | None = None,
    scenario: str = BASELINE_SCENARIO,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> list[SweepPoint]:
    """Ablation: sensitivity of the Eq. 1 score to the discount factor."""
    alphas = alphas or [0.3, 0.5, 0.7, 0.8, 0.9, 0.95]
    specs = override_sweep_specs(
        circuit, device, base_config or CompilerConfig(),
        noise_params or NoiseParameters.paper_defaults(),
        "alpha", alphas, scenario=scenario,
    )
    return _run_sweep(specs, "alpha", list(alphas),
                      workers=workers, engine=engine)


def lookahead_sweep(
    circuit: Circuit,
    device: TiltDevice,
    windows: list[int] | None = None,
    *,
    base_config: CompilerConfig | None = None,
    noise_params: NoiseParameters | None = None,
    scenario: str = BASELINE_SCENARIO,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> list[SweepPoint]:
    """Ablation: sensitivity to the Eq. 1 lookahead window size."""
    windows = windows or [1, 5, 10, 20, 40]
    specs = override_sweep_specs(
        circuit, device, base_config or CompilerConfig(),
        noise_params or NoiseParameters.paper_defaults(),
        "lookahead_window", windows, scenario=scenario,
    )
    return _run_sweep(specs, "lookahead_window", [float(v) for v in windows],
                      workers=workers, engine=engine)


def mapper_sweep(
    circuit: Circuit,
    device: TiltDevice,
    mappers: list[str] | None = None,
    *,
    base_config: CompilerConfig | None = None,
    noise_params: NoiseParameters | None = None,
    scenario: str = BASELINE_SCENARIO,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> dict[str, SweepPoint]:
    """Ablation: effect of the initial-mapping heuristic.

    The returned points carry the mapper name in ``label`` (``value`` is
    only the ordinal position of the mapper in the sweep).
    """
    mappers = mappers or ["trivial", "spectral", "greedy"]
    specs = override_sweep_specs(
        circuit, device, base_config or CompilerConfig(),
        noise_params or NoiseParameters.paper_defaults(),
        "mapper", mappers, labels=list(mappers), scenario=scenario,
    )
    points = _run_sweep(specs, "mapper", [float(i) for i in range(len(mappers))],
                        list(mappers), workers=workers, engine=engine)
    return {mapper: point for mapper, point in zip(mappers, points)}
