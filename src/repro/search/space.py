"""Declarative design spaces over device, compiler and noise knobs.

A :class:`SearchSpace` is the cartesian lattice the paper's design-space
studies walk by hand: each :class:`Knob` names one tunable axis — a
compiler option (``max_swap_len``, ``mapper``), a device-geometry field
(tape length, head width, QCCD trap capacity), a noise-calibration field
(cooling interval) or a spec-level axis (noise scenario, whole
backend+device architectures) — and a candidate is one index per knob.
:meth:`SearchSpace.build_spec` lowers a candidate to the exact
:class:`~repro.exec.jobs.JobSpec` the ad-hoc sweeps in
:mod:`repro.core.sweep` would build (both go through
:func:`repro.core.sweep.point_spec`), so search points share cache keys
with every existing sweep point.

Candidates whose knob combination yields an impossible configuration
(e.g. a head wider than the tape) are *invalid* rather than an error:
strategies skip them, so a grid over tape length x head width simply
covers the feasible corner of the lattice.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.arch.device import DeviceSpec
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import CompilerConfig
from repro.core.sweep import point_spec
from repro.exceptions import ReproError
from repro.exec import JobSpec
from repro.exec.jobs import BASELINE_SCENARIO
from repro.exec.sampling import shard_sampling_spec
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import get_scenario

#: Where a knob's values are applied when a candidate is lowered to a spec.
KNOB_TARGETS = ("config", "device", "noise", "spec")

#: Spec-level fields a ``target="spec"`` knob may set.
SPEC_FIELDS = ("backend", "device", "scenario")

#: A candidate is one value index per knob, in the space's knob order.
Candidate = tuple[int, ...]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, DeviceSpec):
        return value.describe()
    return str(value)


@dataclass(frozen=True)
class Knob:
    """One axis of a search space.

    Attributes
    ----------
    name:
        Unique axis name, used in labels, results and sensitivity tables.
    target:
        Where the values apply: ``"config"`` (compiler knob, via
        :meth:`CompilerConfig.with_overrides`), ``"device"`` (device
        field, via :func:`dataclasses.replace`), ``"noise"`` (noise
        calibration field) or ``"spec"`` (spec-level field: ``backend``,
        ``device`` or ``scenario``).
    field:
        The field the values set.  ``None`` means each value is itself a
        mapping of several fields applied together (how
        :func:`architecture_knob` switches backend and device as one
        axis).
    values:
        The candidate settings, in sweep order.
    labels:
        Human-readable form of each value; auto-derived when omitted.
    """

    name: str
    target: str
    field: str | None
    values: tuple[object, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.target not in KNOB_TARGETS:
            raise ReproError(
                f"unknown knob target {self.target!r}; "
                f"expected one of {KNOB_TARGETS}"
            )
        if not self.values:
            raise ReproError(f"knob {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))
        if self.field is None:
            for value in self.values:
                if not isinstance(value, Mapping):
                    raise ReproError(
                        f"knob {self.name!r} has field=None, so every value "
                        f"must be a mapping of fields; got {value!r}"
                    )
        if not self.labels:
            object.__setattr__(
                self, "labels",
                tuple(_format_value(value) for value in self.values),
            )
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.values):
            raise ReproError(
                f"knob {self.name!r}: {len(self.labels)} labels for "
                f"{len(self.values)} values"
            )

    def overrides(self, index: int) -> dict[str, object]:
        """The field->value mapping selected by one value index."""
        value = self.values[index]
        if self.field is None:
            return dict(value)  # type: ignore[arg-type]
        return {self.field: value}


# ----------------------------------------------------------------------
# Knob constructors (the declarative surface most callers use)
# ----------------------------------------------------------------------
def config_knob(field: str, values: Sequence[object],
                name: str | None = None) -> Knob:
    """A compiler knob: ``max_swap_len``, ``mapper``, ``alpha``, ..."""
    return Knob(name or field, "config", field, tuple(values))


def device_knob(field: str, values: Sequence[object],
                name: str | None = None) -> Knob:
    """A device-geometry knob: ``num_qubits``, ``head_size``,
    ``trap_capacity``, ..."""
    return Knob(name or field, "device", field, tuple(values))


def noise_knob(field: str, values: Sequence[object],
               name: str | None = None) -> Knob:
    """A noise-calibration knob: ``tilt_cooling_interval_moves``, ..."""
    return Knob(name or field, "noise", field, tuple(values))


def scenario_knob(names: Sequence[str], name: str = "scenario") -> Knob:
    """The correlated-noise scenario axis (PR-3 registry names)."""
    for scenario in names:
        get_scenario(scenario)  # unknown names fail at space construction
    return Knob(name, "spec", "scenario", tuple(names))


def architecture_knob(architectures: Mapping[str, tuple[str, DeviceSpec]],
                      name: str = "architecture") -> Knob:
    """A whole-architecture axis: label -> (backend, device) pairs.

    Switching backend and device together is what the TILT-vs-QCCD
    comparison (Fig. 8) needs — a plain ``device`` knob cannot change the
    toolchain that drives it.
    """
    values = tuple(
        {"backend": backend, "device": device}
        for backend, device in architectures.values()
    )
    return Knob(name, "spec", None, values, tuple(architectures))


@dataclass(frozen=True)
class SearchSpace:
    """A cartesian design space around one workload.

    Attributes
    ----------
    circuit:
        The logical workload every candidate runs.
    device:
        Base device; ``device``-target knobs replace fields on it and an
        :func:`architecture_knob` may substitute it wholesale.
    knobs:
        The axes of the space (order defines candidate index order).
    backend:
        Base toolchain (overridable by an architecture knob).
    config / noise:
        Base compiler configuration and noise calibration (``None`` means
        the usual defaults).
    scenario:
        Base correlated-noise scenario name.
    shots:
        Full-fidelity evaluation budget: ``0`` scores candidates with the
        exact analytic model only; ``> 0`` adds a stochastic sampling run
        of this many shots at full fidelity.
    seed:
        Root seed of sampled evaluations (every draw of a shot is a
        pure function of ``(seed, global shot index)``, so results are
        bit-identical for any worker/shard split).
    shards:
        Engine jobs a full-fidelity *sampled* evaluation fans out into
        (via :func:`~repro.exec.sampling.shard_sampling_spec`); analytic
        evaluations are always a single job.
    """

    circuit: Circuit
    device: DeviceSpec
    knobs: tuple[Knob, ...]
    backend: str = "tilt"
    config: CompilerConfig | None = None
    noise: NoiseParameters | None = None
    scenario: str = BASELINE_SCENARIO
    shots: int = 0
    seed: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "knobs", tuple(self.knobs))
        if not self.knobs:
            raise ReproError("a search space needs at least one knob")
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate knob names in {names}")
        if self.shots < 0:
            raise ReproError(f"shots must be >= 0, got {self.shots}")
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")
        get_scenario(self.scenario)

    # ------------------------------------------------------------------
    # Lattice geometry
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of lattice points (valid or not)."""
        size = 1
        for knob in self.knobs:
            size *= len(knob.values)
        return size

    def candidates(self) -> Iterator[Candidate]:
        """Every lattice point, last knob varying fastest."""
        return itertools.product(
            *(range(len(knob.values)) for knob in self.knobs)
        )

    def knob_labels(self) -> dict[str, list[str]]:
        """Axis name -> value labels, in knob order (for results/JSON)."""
        return {knob.name: list(knob.labels) for knob in self.knobs}

    def assignments(self, candidate: Candidate) -> dict[str, object]:
        """Raw knob values selected by *candidate* (name -> value)."""
        self._check(candidate)
        return {
            knob.name: knob.values[index]
            for knob, index in zip(self.knobs, candidate)
        }

    def labels(self, candidate: Candidate) -> dict[str, str]:
        """Value labels selected by *candidate* (name -> label)."""
        self._check(candidate)
        return {
            knob.name: knob.labels[index]
            for knob, index in zip(self.knobs, candidate)
        }

    def describe(self, candidate: Candidate) -> str:
        """Human-readable ``name=label`` form of one candidate."""
        return ", ".join(
            f"{name}={label}" for name, label in self.labels(candidate).items()
        )

    def _check(self, candidate: Candidate) -> None:
        if len(candidate) != len(self.knobs):
            raise ReproError(
                f"candidate {candidate} has {len(candidate)} indices for "
                f"{len(self.knobs)} knobs"
            )
        for knob, index in zip(self.knobs, candidate):
            if not 0 <= index < len(knob.values):
                raise ReproError(
                    f"candidate index {index} out of range for knob "
                    f"{knob.name!r} ({len(knob.values)} values)"
                )

    # ------------------------------------------------------------------
    # Lowering candidates to engine jobs
    # ------------------------------------------------------------------
    def build_spec(self, candidate: Candidate, *,
                   shots: int | None = None) -> JobSpec:
        """Lower one candidate to the :class:`JobSpec` that evaluates it.

        ``shots`` overrides the space's full-fidelity budget (``0`` gives
        the cheap analytic job successive halving uses for early rungs).
        Raises the underlying :class:`~repro.exceptions.ReproError`
        subclass for infeasible knob combinations — use
        :meth:`is_valid` to probe.
        """
        self._check(candidate)
        overrides: dict[str, dict[str, object]] = {
            target: {} for target in KNOB_TARGETS
        }
        for knob, index in zip(self.knobs, candidate):
            overrides[knob.target].update(knob.overrides(index))
        spec_fields = overrides["spec"]
        for field in spec_fields:
            if field not in SPEC_FIELDS:
                raise ReproError(
                    f"spec-level knobs may only set {SPEC_FIELDS}; "
                    f"got {field!r}"
                )
        device = spec_fields.get("device", self.device)
        if overrides["device"]:
            replacements = dict(overrides["device"])
            if (isinstance(device, QccdDevice)
                    and "num_traps" not in replacements
                    and ("trap_capacity" in replacements
                         or "num_qubits" in replacements)):
                # re-derive the trap count like a fresh QccdDevice would;
                # carrying the base device's already-derived count over
                # would pin the sweep to the old geometry (or be invalid)
                replacements["num_traps"] = 0
            try:
                device = dataclasses.replace(device, **replacements)
            except TypeError as exc:
                # an architecture knob can put a device class under a
                # device knob whose field it does not have (head_size on
                # QccdDevice): that corner of the lattice is infeasible,
                # not a crash — map it onto the invalid-and-skipped path
                raise ReproError(
                    f"device knob does not apply to "
                    f"{type(device).__name__}: {exc}"
                ) from exc
        if self.circuit.num_qubits > device.num_qubits:
            raise ReproError(
                f"circuit {self.circuit.name!r} needs "
                f"{self.circuit.num_qubits} qubits but the candidate "
                f"device has {device.num_qubits}"
            )
        config = self.config or CompilerConfig()
        if overrides["config"]:
            config = config.with_overrides(**overrides["config"])
        noise = self.noise or NoiseParameters.paper_defaults()
        if overrides["noise"]:
            noise = noise.with_overrides(**overrides["noise"])
        backend = spec_fields.get("backend", self.backend)
        if (backend == "tilt" and config.max_swap_len is not None
                and isinstance(device, TiltDevice)
                and not 1 <= config.max_swap_len <= device.max_gate_span):
            # the canonical cross-knob interaction (MaxSwapLen x head
            # geometry): the router would reject this at compile time,
            # deep inside an engine worker — fail here instead so the
            # combination counts as invalid-and-skipped like any other
            raise ReproError(
                f"max_swap_len={config.max_swap_len} outside "
                f"[1, {device.max_gate_span}] for {device.describe()}"
            )
        budget = self.shots if shots is None else shots
        return point_spec(
            self.circuit, device, config, noise,
            backend=backend,
            scenario=spec_fields.get("scenario", self.scenario),
            shots=budget, seed=self.seed if budget else 0,
            label=self.describe(candidate),
        )

    def is_valid(self, candidate: Candidate) -> bool:
        """Whether the knob combination yields a feasible configuration."""
        try:
            self.build_spec(candidate)
        except ReproError:
            return False
        return True

    def valid_candidates(self) -> list[Candidate]:
        """The feasible lattice points, in lattice order."""
        return [c for c in self.candidates() if self.is_valid(c)]

    def evaluation_specs(self, candidate: Candidate,
                         shots: int | None = None) -> list[JobSpec]:
        """The engine jobs one evaluation of *candidate* submits.

        Analytic evaluations (``shots == 0``) are a single job; sampled
        evaluations fan out into :attr:`shards` contiguous shot-range
        jobs the engine can run concurrently.  Merging the shard results
        is bit-identical to a single-job run, so the shard count only
        changes the work breakdown, never the outcome.
        """
        spec = self.build_spec(candidate, shots=shots)
        if spec.shots and self.shards > 1:
            return shard_sampling_spec(spec, self.shards)
        return [spec]
