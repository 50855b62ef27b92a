"""Declarative job specifications and their results.

A :class:`JobSpec` captures everything that determines an experiment
outcome — circuit, device, compiler configuration, noise calibration and
which backend toolchain to run — so that two specs with equal content can
share one execution.  :func:`spec_key` derives the content hash used for
deduplication and caching; the ``label`` field is carried through to the
result but deliberately excluded from the hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.arch.device import DeviceSpec
from repro.circuits.circuit import Circuit
from repro.compiler.metrics import CompileStats
from repro.compiler.pipeline import CompilerConfig
from repro.exceptions import ReproError
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import get_scenario
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    ShotResult,
    shot_result_from_json,
    shot_result_to_json,
)

#: Backends the engine knows how to drive.
BACKENDS = ("tilt", "ideal", "qccd")

#: The scenario name every spec runs under unless told otherwise.
BASELINE_SCENARIO = "baseline"


@dataclass(frozen=True)
class JobSpec:
    """One unit of experiment work: compile (where applicable) and simulate.

    Attributes
    ----------
    circuit:
        The logical workload.
    device:
        Target device model; its concrete type must match *backend*
        (:class:`~repro.arch.tilt.TiltDevice` for ``"tilt"``, etc.).
    backend:
        Toolchain selector: ``"tilt"`` (LinQ compile + TILT simulator),
        ``"ideal"`` (fully connected reference, no routing) or ``"qccd"``
        (QCCD compiler + simulator).
    config:
        LinQ compiler configuration (``"tilt"`` backend only).
    noise:
        Noise calibration; ``None`` means the paper defaults.
    simulate:
        When False, only compile (no simulation result).  Ignored by the
        ``"ideal"`` backend, which has no separate compile stage.
    shots:
        When positive, additionally run the stochastic (Monte-Carlo)
        noise simulation for this many shots; the sampled
        :class:`~repro.sim.stochastic.ShotResult` lands on
        :attr:`JobResult.shot`.  ``0`` (the default) keeps the job purely
        analytic.
    seed:
        Root seed of the stochastic run.  Every shot derives its own
        generator from ``(seed, global shot index)``, so results are
        bit-identical regardless of worker count or sharding.
    shot_offset:
        First global shot index of this job — sampling covers
        ``[shot_offset, shot_offset + shots)``.  Used by
        :func:`~repro.exec.sampling.shard_sampling_spec` to fan one
        logical run out across engine workers.
    scenario:
        Name of a registered correlated-noise scenario
        (:mod:`repro.noise.scenarios`).  ``"baseline"`` (the default) is
        the paper's independent-error model and is *not* hashed into the
        content key, so every pre-existing analytic and sampled cache key
        is unchanged; non-baseline names are hashed.
    label:
        Free-form tag carried through to :class:`JobResult` (not hashed).
    """

    circuit: Circuit
    device: DeviceSpec
    backend: str = "tilt"
    config: CompilerConfig | None = None
    noise: NoiseParameters | None = None
    simulate: bool = True
    shots: int = 0
    seed: int = 0
    shot_offset: int = 0
    scenario: str = BASELINE_SCENARIO
    label: str = ""

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        get_scenario(self.scenario)  # unknown names fail at spec creation
        if self.shots < 0:
            raise ReproError(f"shots must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise ReproError(f"seed must be >= 0, got {self.seed}")
        if self.shot_offset < 0:
            raise ReproError(
                f"shot_offset must be >= 0, got {self.shot_offset}"
            )
        if self.shot_offset and not self.shots:
            raise ReproError("shot_offset is meaningless without shots")
        if self.shots and not self.simulate:
            raise ReproError(
                "shots > 0 needs simulate=True (sampling is simulation)"
            )
        if self.scenario != BASELINE_SCENARIO and not self.simulate:
            raise ReproError(
                "a non-baseline scenario needs simulate=True (scenarios "
                "only affect simulation, and hashing one into a "
                "compile-only key would just split the cache)"
            )


@dataclass(frozen=True)
class JobResult:
    """Outcome of one executed (or cache-served) job.

    ``stats`` is ``None`` for the ``"ideal"`` backend (nothing is compiled)
    and ``simulation`` is ``None`` for compile-only jobs.  ``shot`` holds
    the sampled :class:`~repro.sim.stochastic.ShotResult` when the spec
    requested ``shots > 0``.  ``wall_time_s`` is the execution time
    measured inside the worker; cache hits keep the wall time of the run
    that originally produced the result.
    """

    key: str
    backend: str
    label: str
    stats: CompileStats | None
    simulation: SimulationResult | None
    wall_time_s: float
    shot: ShotResult | None = None
    cache_hit: bool = False

    def with_cache_hit(self, label: str | None = None) -> "JobResult":
        """A copy marked as served from cache (optionally relabelled)."""
        return dataclasses.replace(
            self, cache_hit=True,
            label=self.label if label is None else label,
        )


def _circuit_payload(circuit: Circuit) -> dict[str, Any]:
    return {
        "num_qubits": circuit.num_qubits,
        "name": circuit.name,
        "gates": [
            [gate.name, list(gate.qubits), list(gate.params)]
            for gate in circuit
        ],
    }


def _dataclass_payload(value: object | None) -> dict[str, Any] | None:
    if value is None:
        return None
    payload = dataclasses.asdict(value)
    payload["__type__"] = type(value).__name__
    return payload


def spec_key(spec: JobSpec) -> str:
    """Content hash of a spec: equal keys imply equal execution outcomes."""
    payload = {
        "backend": spec.backend,
        "circuit": _circuit_payload(spec.circuit),
        "device": _dataclass_payload(spec.device),
        "config": _dataclass_payload(spec.config),
        "noise": _dataclass_payload(spec.noise),
        "simulate": bool(spec.simulate),
    }
    if spec.shots:
        # Only sampled jobs hash these knobs, so every purely analytic
        # key (and any on-disk cache of one) is unchanged.
        payload["sampling"] = {
            "shots": spec.shots,
            "seed": spec.seed,
            "shot_offset": spec.shot_offset,
        }
    if spec.scenario != BASELINE_SCENARIO:
        # Same reasoning: baseline specs keep their pre-scenario keys
        # byte for byte, so no existing cache entry is invalidated.  The
        # *resolved* scenario is hashed (not just its name), so
        # re-registering a name with different knobs cannot serve stale
        # results from a persistent cache.
        payload["scenario"] = _dataclass_payload(get_scenario(spec.scenario))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# JSON (de)serialisation of results, for the durable RunStore
# ----------------------------------------------------------------------
#: What a persisted result *means*.  Keys hash what a job is, not what
#: the code computes for it, so a change that alters results for an
#: unchanged key must bump this: every persisted result carries it, and a
#: record stamped with any other value is recomputed rather than served.
#: The golden digests in ``tests/fixtures/spec_keys.json`` fail tier-1
#: when results move without a bump.  History:
#:
#: 2. cooling-boundary fix (``quanta_after_moves`` / pause charging);
#: 3. the vectorized sampler's skip-sampling draw discipline;
#: 4. one version for every persisted result.  Every store written
#:    before it is stamped 1, including those holding version-3
#:    semantics, so all of them are recomputed.
RESULT_SEMANTICS_VERSION = 4


def result_to_json(result: JobResult) -> dict[str, Any]:
    """Serialise a result to the plain-JSON form a RunStore persists."""
    return {
        "key": result.key,
        "backend": result.backend,
        "stats": dataclasses.asdict(result.stats) if result.stats else None,
        "simulation": (
            dataclasses.asdict(result.simulation) if result.simulation else None
        ),
        "shot": shot_result_to_json(result.shot) if result.shot else None,
        "wall_time_s": result.wall_time_s,
    }


def result_from_json(payload: dict[str, Any]) -> JobResult:
    """Rebuild a :class:`JobResult` from its persisted JSON form."""
    stats = payload.get("stats")
    simulation = payload.get("simulation")
    shot = payload.get("shot")
    return JobResult(
        key=payload["key"],
        backend=payload["backend"],
        label="",
        stats=CompileStats(**stats) if stats else None,
        simulation=SimulationResult(**simulation) if simulation else None,
        shot=shot_result_from_json(shot) if shot else None,
        wall_time_s=float(payload.get("wall_time_s", 0.0)),
    )
