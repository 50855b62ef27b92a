"""The benchmark's four workloads, built only from public entry points.

Each workload is split into a set-up step (build circuits, devices and
specs: paid on every CLI run, reported as ``setup_s``) and a measured
step (open the engine or store, run, return the results: ``wall_s``).
Output checks, the result digest and the modeled-design metrics are
computed afterwards from the returned results and are never timed.

Every run is serial (``workers=1``) on a fresh engine; the only on-disk
state is the temporary store of ``search-smoke`` and the warm store that
``cached-rerun`` reads (written beforehand by a ``paper-figures`` pass).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig
from repro.core.comparison import (
    comparison_from_results,
    comparison_specs,
    tilt_vs_qccd_ratios,
)
from repro.core.sweep import default_max_swap_lengths, sweep_job
from repro.exceptions import ReproError
from repro.exec import ExecutionEngine, JobResult, JobSpec, run_jobs
from repro.noise.parameters import NoiseParameters
from repro.search import (
    GridStrategy,
    SearchResult,
    SearchSpace,
    SuccessiveHalvingStrategy,
    config_knob,
    scenario_knob,
)
from repro.search import runner as search_runner
from repro.workloads import rcs as rcs_module
from repro.workloads import suite

#: Figures 6/7 route from the trivial placement so only the swap
#: inserter differs between the baseline and LinQ routers.
ROUTING_CONFIG = CompilerConfig(mapper="trivial")

PAPER_HEAD_SIZES = (16, 32)
PAPER_TRAP_CAPACITIES = (17, 25, 33)

SEARCH_SHOTS = 512
SEARCH_SHARDS = 4
SEARCH_SCENARIOS = ("baseline", "crosstalk")

SCENARIO_APPS = ("ADDER", "QAOA", "BV", "QFT")
SCENARIOS = ("baseline", "crosstalk", "leakage", "heating_burst")
SCENARIO_SHOTS = 4096

#: Half-width of the accepted band around the analytic success rate, in
#: binomial standard deviations (plus a half-shot continuity term).  Wide
#: enough that a legitimate change of random streams does not flip one of
#: 48 cells by chance, narrow enough to catch a broken sampler.
SIGMA_BAND = 5.0


@dataclass
class Outcome:
    """What one measured step produced, for checking and reporting."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    modeled: dict[str, float] = field(default_factory=dict)


@dataclass
class Prepared:
    """A workload after set-up: ``run`` is the measured step and
    ``summarize`` turns its return value into an :class:`Outcome`."""

    run: Callable[[], Any]
    summarize: Callable[[Any], Outcome]
    attempted: int


# ----------------------------------------------------------------------
# Output checks, digest and modeled metrics
# ----------------------------------------------------------------------
def check_result(result: JobResult) -> str | None:
    """Why one engine job's output is wrong, or ``None`` when it is fine."""
    simulation = result.simulation
    if simulation is None:
        return f"{result.label}: no simulation result"
    where = f"{simulation.circuit_name} {result.label}"
    rate = simulation.success_rate
    if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
        return f"{where}: analytic success rate {rate!r}"
    shot = result.shot
    if shot is not None:
        sampled = shot.successes / shot.shots
        sigma = math.sqrt(rate * (1.0 - rate) / shot.shots)
        band = SIGMA_BAND * sigma + 0.5 / shot.shots
        if abs(sampled - rate) > band:
            return (f"{where}: sampled {sampled:.5f} outside "
                    f"{SIGMA_BAND:g} sigma of analytic {rate:.5f}")
    return None


def result_record(result: JobResult) -> dict[str, Any]:
    """The modeled/simulated content of one job (timings left out)."""
    record: dict[str, Any] = {"label": result.label,
                              "backend": result.backend}
    if result.stats is not None:
        record["stats"] = {
            name: value
            for name, value in dataclasses.asdict(result.stats).items()
            if not name.startswith("time_")
        }
    if result.simulation is not None:
        record["simulation"] = dataclasses.asdict(result.simulation)
    if result.shot is not None:
        shot = result.shot
        record["shot"] = {
            "shots": shot.shots, "seed": shot.seed,
            "successes": shot.successes,
            "errors_per_shot": list(shot.errors_per_shot),
            "mechanism_counts": shot.mechanism_counts,
            "mechanism_shots": shot.mechanism_shots,
        }
    return record


def digest(records: list[Any]) -> str:
    """SHA-256 of the canonical JSON of *records*."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def summarize_jobs(results: list[JobResult],
                   groups: list[tuple[str, int, int]]) -> Outcome:
    """Checks, digest and modeled metrics of a batch of engine jobs.

    *groups* names the ``(workload, start, count)`` slices that form one
    architecture comparison each.
    """
    failures = [problem for problem in map(check_result, results)
                if problem is not None]
    tilt = [r for r in results if r.backend == "tilt"]
    ratios = tilt_vs_qccd_ratios([
        comparison_from_results(name, results[start:start + count])
        for name, start, count in groups
    ])
    mean_log10 = (sum(r.simulation.log10_success_rate for r in tilt)
                  / len(tilt))
    modeled = {
        "tilt_success_gmean": 10.0 ** mean_log10,
        "swaps": float(sum(r.stats.num_swaps for r in tilt)),
        "tape_moves": float(sum(r.stats.num_moves for r in tilt)),
        "modeled_runtime": sum(r.simulation.execution_time_s for r in tilt),
        # the values experiments.headline_ratios reports
        "tilt_qccd_ratio_max": ratios["max"],
        "tilt_qccd_ratio_gmean": ratios["geometric_mean"],
    }
    return Outcome(attempted=len(results), failures=failures,
                   digest=digest([result_record(r) for r in results]),
                   modeled=modeled)


# ----------------------------------------------------------------------
# paper-figures / cached-rerun
# ----------------------------------------------------------------------
def paper_circuit(name: str, seed: int) -> Any:
    """A Table II workload at paper scale; *seed* draws the RCS instance."""
    if name == "RCS":
        circuit = rcs_module.rcs_workload(
            suite.suite_qubits(name, "paper"), seed=seed
        )
        circuit.name = "rcs"
        return circuit
    return suite.build_workload(name, "paper")


def paper_specs(seed: int) -> tuple[list[JobSpec], list[tuple[str, int, int]]]:
    """The Figure 6 + Figure 8 job set at paper scale (42 jobs)."""
    params = NoiseParameters.paper_defaults()
    circuits = {spec.name: paper_circuit(spec.name, seed)
                for spec in suite.standard_suite()}
    specs: list[JobSpec] = []
    for spec in suite.routing_suite():
        device = TiltDevice(num_qubits=circuits[spec.name].num_qubits,
                            head_size=PAPER_HEAD_SIZES[0])
        for router in ("baseline", "linq"):
            specs.append(sweep_job(
                circuits[spec.name], device,
                ROUTING_CONFIG.with_overrides(router=router), params,
                label=f"fig6/{spec.name}/{router}",
            ))
    groups: list[tuple[str, int, int]] = []
    for name, circuit in circuits.items():
        comparison = comparison_specs(
            circuit, head_sizes=PAPER_HEAD_SIZES,
            qccd_trap_capacities=PAPER_TRAP_CAPACITIES, noise_params=params,
        )
        groups.append((name, len(specs), len(comparison)))
        specs.extend(comparison)
    return specs, groups


def paper_figures(seed: int, store: str | None = None) -> Prepared:
    """Figures 6 + 8 at paper scale, one batch on a fresh engine.

    With *store*, the engine is backed by that durable ``RunStore``:
    ``cached-rerun`` uses this to write its warm store and to read it.
    """
    specs, groups = paper_specs(seed)

    def run() -> list[JobResult]:
        return run_jobs(specs, workers=1,
                        engine=ExecutionEngine(workers=1, store=store))

    return Prepared(run=run, attempted=len(specs),
                    summarize=lambda results: summarize_jobs(results, groups))


# ----------------------------------------------------------------------
# search-smoke
# ----------------------------------------------------------------------
def search_smoke(seed: int, scratch: str) -> Prepared:
    """The search-study space: grid (durable) plus successive halving,
    then one architecture comparison of the study circuit.

    The comparison's TILT job equals the halving's analytic evaluation
    of the widest MaxSwapLen, so it is served from that engine's cache;
    its modeled metrics do not depend on the sampling seed.
    """
    params = NoiseParameters.paper_defaults()
    circuit = suite.build_workload("QFT", "small")
    width = circuit.num_qubits
    device = TiltDevice(num_qubits=width, head_size=max(4, width // 4))
    space = SearchSpace(
        circuit=circuit, device=device,
        knobs=[config_knob("max_swap_len", default_max_swap_lengths(device)),
               scenario_knob(SEARCH_SCENARIOS)],
        config=ROUTING_CONFIG, noise=params, shots=SEARCH_SHOTS, seed=seed,
        shards=SEARCH_SHARDS,
    )
    reference = comparison_specs(
        circuit, head_sizes=(device.head_size,),
        qccd_trap_capacities=(max(3, width // 4), max(4, width // 3),
                              max(5, width // 2)),
        compiler_config=ROUTING_CONFIG.with_overrides(
            max_swap_len=device.max_gate_span),
        noise_params=params,
    )

    def run() -> tuple[dict[str, SearchResult], list[JobResult]]:
        with tempfile.TemporaryDirectory(dir=scratch) as store:
            searches = {"grid": search_runner.run_search(
                space, GridStrategy(), store=store, workers=1)}
        engine = ExecutionEngine(workers=1)
        halving = SuccessiveHalvingStrategy()
        searches[halving.name] = search_runner.run_search(
            space, halving, engine=engine, workers=1)
        return searches, run_jobs(reference, workers=1, engine=engine)

    def summarize(outputs: tuple[dict[str, SearchResult], list[JobResult]]
                  ) -> Outcome:
        searches, results = outputs
        outcome = summarize_jobs(results, [(circuit.name, 0, len(results))])
        records: list[Any] = [outcome.digest]
        for name, search in searches.items():
            outcome.attempted += sum(rung.num_candidates
                                     for rung in search.rungs)
            for point in search.points:
                if not (math.isfinite(point.success_rate)
                        and 0.0 <= point.success_rate <= 1.0):
                    outcome.failures.append(
                        f"{name} {point.assignments}: success "
                        f"{point.success_rate!r}")
            try:
                search.best()
            except ReproError as exc:
                outcome.failures.append(f"{name}: {exc}")
            records.append({"strategy": name, "num_jobs": search.num_jobs,
                            "points": [dataclasses.asdict(point)
                                       for point in search.points]})
        outcome.digest = digest(records)
        return outcome

    # if the measured step raises, at least the grid's evaluations failed
    return Prepared(run=run, summarize=summarize,
                    attempted=len(space.valid_candidates()))


# ----------------------------------------------------------------------
# scenario-sampling
# ----------------------------------------------------------------------
def scenario_sampling(seed: int) -> Prepared:
    """Four apps x {tilt, ideal, qccd} x four scenarios, sampled."""
    params = NoiseParameters.paper_defaults()
    specs: list[JobSpec] = []
    groups: list[tuple[str, int, int]] = []
    for name in SCENARIO_APPS:
        circuit = suite.build_workload(name, "small")
        width = circuit.num_qubits
        for scenario in SCENARIOS:
            comparison = comparison_specs(
                circuit, head_sizes=(max(4, width // 4),),
                qccd_trap_capacities=(max(4, width // 3),),
                noise_params=params, scenario=scenario,
            )
            groups.append((f"{name}/{scenario}", len(specs), len(comparison)))
            # labels stay as comparison_specs made them: the comparison
            # assembly reads the architecture off them
            specs.extend(
                dataclasses.replace(spec, shots=SCENARIO_SHOTS, seed=seed)
                for spec in comparison
            )

    def run() -> list[JobResult]:
        return run_jobs(specs, workers=1, engine=ExecutionEngine(workers=1))

    return Prepared(run=run, attempted=len(specs),
                    summarize=lambda results: summarize_jobs(results, groups))


def prepare(name: str, seed: int, scratch: str,
            store: str | None) -> Prepared:
    """Set up workload *name*; ``cached-rerun`` is the paper-figures job
    set on a warm *store*."""
    if name in ("paper-figures", "cached-rerun"):
        return paper_figures(seed, store=store)
    if name == "search-smoke":
        return search_smoke(seed, scratch)
    if name == "scenario-sampling":
        return scenario_sampling(seed)
    raise SystemExit(f"unknown workload {name!r}")
