"""Stochastic (sampled) interpretation of the analytic fidelity model.

The paper's noise model is analytic: every gate contributes a fidelity and
the program success rate is their product (Eq. 4).  The shot-based
Monte-Carlo subsystem (:mod:`repro.sim.stochastic`) reinterprets the same
numbers as stochastic error channels:

* a unitary gate with fidelity ``F`` *fails* with probability ``1 - F``,
  and a failure applies a uniformly random non-identity Pauli on the
  gate's qubits (a depolarizing channel of matching process infidelity);
* a measurement with readout fidelity ``F`` flips its classical outcome
  bit with probability ``1 - F``.

Under this interpretation the probability that one shot samples *zero*
errors is exactly the product of all gate fidelities — the analytic
success rate — so the sampled success rate converges to the closed-form
model by construction.  That agreement is what
:mod:`repro.analysis.convergence` tabulates and the stochastic test-suite
pins down.

This module holds the channel vocabulary: :class:`ErrorSite` (one
potential error location with its trigger probability), its columnar
companion :class:`SiteTable` (the same site list as numpy arrays, the
form the vectorized sampler consumes) and the label table a triggered
site draws its record label from.  Each simulator replays its program
into an execution timeline, because only the simulator knows the heating
state a gate runs under; :func:`repro.noise.scenarios.build_scenario_sites`
expands every timeline into sites, and
:meth:`repro.sim.stochastic.StochasticSampler.from_timeline` builds
every sampler, baseline included, from that expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError

#: Error-site kinds.
PAULI_1Q = "pauli1"
PAULI_2Q = "pauli2"
MEASURE_FLIP = "measure_flip"

#: Correlated-noise site kinds (see :mod:`repro.noise.scenarios`): a
#: depolarizing kick on a spectator ion when an MS gate fires, a qubit
#: leaving the computational subspace, and a shuttle-induced multi-quanta
#: burst that scales every later error in its burst-coupling window.
CROSSTALK = "crosstalk"
LEAKAGE = "leakage"
HEATING_BURST = "heating_burst"

#: Every kind a site may carry.
SITE_KINDS = (PAULI_1Q, PAULI_2Q, MEASURE_FLIP, CROSSTALK, LEAKAGE,
              HEATING_BURST)

#: Kinds whose trigger is an *error event* (a shot fails iff one of these
#: triggers).  A heating burst is not itself an error — it only raises the
#: probability of later ones — so it is deliberately absent.
ERROR_KINDS = frozenset({PAULI_1Q, PAULI_2Q, MEASURE_FLIP, CROSSTALK,
                         LEAKAGE})

#: Kinds whose probability a triggered heating burst scales (gate-level
#: mechanisms; classical readout is unaffected by motional energy).
BURST_SCALED_KINDS = frozenset({PAULI_1Q, PAULI_2Q, CROSSTALK, LEAKAGE})

#: Kinds whose trigger injects a sampled Pauli (leakage, bursts and
#: readout flips carry fixed labels and inject no gate).
LABEL_KINDS = frozenset({PAULI_1Q, PAULI_2Q, CROSSTALK})

#: Kinds that only appear on correlated (scenario) timelines.  Their
#: presence makes the sampler's expected success rate the scenario's
#: per-window form (:func:`repro.noise.scenarios.expected_success_rate`).
#: Every timeline takes the sampler's skip scan; a :data:`HEATING_BURST`
#: site splits it into one scan group per window with one hazard row per
#: active-burst count, and leakage is a per-shot rule over the triggers.
CORRELATED_KINDS = frozenset({CROSSTALK, LEAKAGE, HEATING_BURST})

#: Non-identity Pauli labels of the single-qubit depolarizing channel.
PAULI_LABELS_1Q: tuple[str, ...] = ("X", "Y", "Z")

#: The 15 non-identity two-qubit Pauli labels ("IX" means I on the first
#: operand qubit, X on the second).
PAULI_LABELS_2Q: tuple[str, ...] = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)

#: The label a triggered site of each kind records, drawn uniformly from
#: its kind's row: the non-identity Paulis of the depolarizing channels
#: (crosstalk kicks prefixed ``"XT"`` so records stay attributable to
#: their mechanism) or the one fixed label of every other kind.
LABEL_TABLE: dict[str, tuple[str, ...]] = {
    PAULI_1Q: PAULI_LABELS_1Q,
    PAULI_2Q: PAULI_LABELS_2Q,
    MEASURE_FLIP: ("FLIP",),
    CROSSTALK: tuple("XT" + label for label in PAULI_LABELS_1Q),
    LEAKAGE: ("LEAK",),
    HEATING_BURST: ("BURST",),
}

#: :data:`LABEL_TABLE` flattened in :data:`SITE_KINDS` order, and where
#: each kind's row starts in it.
_FLAT_LABELS = np.array(
    [label for kind in SITE_KINDS for label in LABEL_TABLE[kind]]
)
_ROW_STARTS = dict(zip(
    SITE_KINDS,
    np.cumsum([0] + [len(LABEL_TABLE[kind]) for kind in SITE_KINDS]).tolist(),
))


@dataclass(frozen=True)
class ErrorSite:
    """One potential error location in an executed gate sequence.

    Attributes
    ----------
    index:
        Position of the owning gate in execution order (used to inject
        sampled Paulis at the right place for counts sampling).  For
        ``"heating_burst"`` sites it is the move/transport number instead
        (bursts own no gate).
    kind:
        ``"pauli1"`` / ``"pauli2"`` for depolarizing noise after a unitary
        gate, ``"measure_flip"`` for classical readout error,
        ``"crosstalk"`` for a depolarizing kick on one spectator ion,
        ``"leakage"`` for one qubit leaving the computational subspace and
        ``"heating_burst"`` for a shuttle-induced error amplifier.
    qubits:
        The qubits the error can act on (the gate's operands, the
        spectator ion, or the leaking qubit; empty for bursts).
    probability:
        Per-shot trigger probability, ``1 - fidelity`` of the gate under
        its heating state (or the scenario-derived mechanism rate).
    window:
        Burst-coupling window id.  A triggered ``"heating_burst"`` site
        scales the probability of every *later* burst-scalable site that
        shares its window (TILT: the stretch between two sympathetic
        cooling pauses; QCCD: the trap).
    """

    index: int
    kind: str
    qubits: tuple[int, ...]
    probability: float
    window: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SITE_KINDS:
            raise SimulationError(f"unknown error-site kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError(
                f"error probability {self.probability} outside [0, 1]"
            )
        if self.kind == LEAKAGE and len(self.qubits) != 1:
            raise SimulationError(
                f"a leakage site leaks exactly one qubit, got {self.qubits}"
            )


@dataclass(frozen=True)
class SiteTable:
    """Columnar (structure-of-arrays) view of an error-site sequence.

    The vectorized sampler needs per-site *columns* — one probability,
    window and kind-class entry per site, aligned with the site's
    position in execution order — rather than a list of
    :class:`ErrorSite` objects.  Building those columns once per sampler
    keeps every hot shot-block free of per-site Python iteration.

    All arrays are marked read-only: the table is shared between the
    trigger kernels, the hazard-table cache and telemetry, and none of
    them may mutate it.  ``kinds`` keeps the raw kind string per site
    for telemetry grouping; ``indices`` is each site's
    :attr:`ErrorSite.index`.
    """

    probabilities: np.ndarray
    windows: np.ndarray
    indices: np.ndarray
    kinds: tuple[str, ...]
    #: Per-site boolean columns classifying the kind (aligned with
    #: ``probabilities``): injects a sampled Pauli, classical readout
    #: flip, leakage, heating burst, any correlated-only kind.
    label_mask: np.ndarray
    flip_mask: np.ndarray
    leak_mask: np.ndarray
    burst_mask: np.ndarray
    correlated_mask: np.ndarray
    #: Each site's row of :data:`LABEL_TABLE`: where it starts in the
    #: flattened table and how many labels it holds.
    label_starts: np.ndarray
    label_counts: np.ndarray

    @classmethod
    def from_sites(cls, sites: Sequence[ErrorSite]) -> "SiteTable":
        """Build the columns of *sites* (kept in execution order)."""
        kinds = tuple(site.kind for site in sites)
        probabilities = np.array(
            [site.probability for site in sites], dtype=float
        )
        windows = np.array([site.window for site in sites], dtype=np.int64)
        indices = np.array([site.index for site in sites], dtype=np.int64)
        columns = {
            "label_mask": np.array(
                [kind in LABEL_KINDS for kind in kinds], dtype=bool
            ),
            "flip_mask": np.array(
                [kind == MEASURE_FLIP for kind in kinds], dtype=bool
            ),
            "leak_mask": np.array(
                [kind == LEAKAGE for kind in kinds], dtype=bool
            ),
            "burst_mask": np.array(
                [kind == HEATING_BURST for kind in kinds], dtype=bool
            ),
            "correlated_mask": np.array(
                [kind in CORRELATED_KINDS for kind in kinds], dtype=bool
            ),
            "label_starts": np.array(
                [_ROW_STARTS[kind] for kind in kinds], dtype=np.int64
            ),
            "label_counts": np.array(
                [len(LABEL_TABLE[kind]) for kind in kinds], dtype=np.int64
            ),
        }
        for array in (probabilities, windows, indices, *columns.values()):
            array.setflags(write=False)
        return cls(probabilities=probabilities, windows=windows,
                   indices=indices, kinds=kinds, **columns)

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def correlated(self) -> bool:
        """True when any site is of a :data:`CORRELATED_KINDS` kind."""
        return bool(self.correlated_mask.any())

    def lookup_labels(self, positions: np.ndarray,
                      uniforms: np.ndarray) -> np.ndarray:
        """The labels of triggered sites, one table lookup for all.

        Site ``positions[i]`` records entry ``floor(uniforms[i] * n)``
        of its kind's :data:`LABEL_TABLE` row of ``n`` labels (clamped
        to the row, since ``u * n`` can round up to ``n`` for ``u``
        just below 1).
        """
        counts = self.label_counts[positions]
        choices = np.minimum((uniforms * counts).astype(np.int64),
                             counts - 1)
        return _FLAT_LABELS[self.label_starts[positions] + choices]


def error_site_for_gate(index: int, gate: Gate, fidelity: float,
                        window: int = 0) -> ErrorSite | None:
    """The error site of one executed gate, or ``None`` if it cannot fail.

    Barriers and gates with fidelity 1 produce no site (zero-probability
    sites would only slow the sampler down).
    """
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


def pauli_gates(site: ErrorSite, label: str) -> list[Gate]:
    """The unitary gates that realise a sampled Pauli *label* at *site*.

    Measurement flips are classical (handled on the sampled bit string),
    leakage is handled structurally (later gates on the leaked qubit are
    dropped) and bursts only scale probabilities, so none of those
    produce gates.  Crosstalk kicks strip their ``"XT"`` record prefix
    and inject the single-qubit Pauli on the spectator.
    """
    if site.kind in (MEASURE_FLIP, LEAKAGE, HEATING_BURST):
        return []
    if site.kind == CROSSTALK:
        label = label[-1:]
    gates: list[Gate] = []
    for qubit, factor in zip(site.qubits, label):
        if factor != "I":
            gates.append(Gate(factor.lower(), (qubit,)))
    return gates
