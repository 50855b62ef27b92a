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

This module holds the channel vocabulary: :class:`SiteTable` (every
potential error location of a program as numpy columns, the form the
vectorized sampler and the exact analytics consume), :class:`ErrorSite`
(one location as a record, the form tests and extensions write) and the
label table a triggered site draws its record label from.  Each
simulator's one replay records its execution timeline as columns,
because only the simulator knows the heating state a gate runs under;
:meth:`repro.noise.scenarios.Timeline.site_table` expands every
timeline straight into a table, and
:meth:`repro.sim.stochastic.StochasticSampler.from_timeline` builds
every sampler, baseline included, from that table.
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

#: Each kind's code, its position in :data:`SITE_KINDS`: the form a
#: :class:`SiteTable` stores kinds in.
KIND_CODES = {kind: code for code, kind in enumerate(SITE_KINDS)}

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

#: :data:`LABEL_TABLE` flattened in :data:`SITE_KINDS` order, and per
#: kind code (see :data:`KIND_CODES`) how many labels its row holds and
#: where the row starts.
_FLAT_LABELS = np.array(
    [label for kind in SITE_KINDS for label in LABEL_TABLE[kind]]
)
_ROW_COUNTS = np.array([len(LABEL_TABLE[kind]) for kind in SITE_KINDS],
                       dtype=np.int64)
_ROW_STARTS = np.cumsum(_ROW_COUNTS) - _ROW_COUNTS


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


def kind_mask(codes: np.ndarray, kinds: frozenset[str]) -> np.ndarray:
    """Which of the kind *codes* stand for one of *kinds*."""
    flags = np.array([kind in kinds for kind in SITE_KINDS], dtype=bool)
    return flags[codes]


@dataclass(frozen=True)
class SiteTable:
    """Columnar (structure-of-arrays) form of an error-site sequence.

    The vectorized sampler needs per-site *columns* — one probability,
    window and kind-class entry per site, aligned with the site's
    position in execution order — rather than a list of
    :class:`ErrorSite` objects.  A simulator's timeline expands straight
    into these columns (:meth:`repro.noise.scenarios.Timeline.site_table`);
    :meth:`from_sites` builds them from records, and :meth:`site` and
    :meth:`sites` give the records back on demand.

    All arrays are marked read-only: the table is shared between the
    trigger kernels, the hazard-table cache and telemetry, and none of
    them may mutate it.  ``codes`` is each site's kind as its
    :data:`KIND_CODES` code, ``indices`` its :attr:`ErrorSite.index`
    and ``qubits`` its qubits, one row per site padded with ``-1`` to
    the widest site.
    """

    codes: np.ndarray
    probabilities: np.ndarray
    windows: np.ndarray
    indices: np.ndarray
    qubits: np.ndarray
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
    def from_columns(cls, codes: np.ndarray, probabilities: np.ndarray,
                     windows: np.ndarray, indices: np.ndarray,
                     qubits: np.ndarray) -> "SiteTable":
        """The table of sites given column by column, in execution order.

        Kinds arrive as :data:`KIND_CODES` codes; every other check of
        :class:`ErrorSite` runs here, once per column.
        """
        outside = ~((probabilities >= 0.0) & (probabilities <= 1.0))
        if outside.any():
            raise SimulationError(
                f"error probability {probabilities[outside][0]} "
                f"outside [0, 1]"
            )
        leak_mask = codes == KIND_CODES[LEAKAGE]
        leak_widths = (qubits[leak_mask] >= 0).sum(axis=1)
        if (leak_widths != 1).any():
            raise SimulationError(
                "a leakage site leaks exactly one qubit, got "
                f"{leak_widths[leak_widths != 1][0]} qubits"
            )
        columns = {
            "codes": codes,
            "probabilities": probabilities,
            "windows": windows,
            "indices": indices,
            "qubits": qubits,
            "label_mask": kind_mask(codes, LABEL_KINDS),
            "flip_mask": codes == KIND_CODES[MEASURE_FLIP],
            "leak_mask": leak_mask,
            "burst_mask": codes == KIND_CODES[HEATING_BURST],
            "correlated_mask": kind_mask(codes, CORRELATED_KINDS),
            "label_starts": _ROW_STARTS[codes],
            "label_counts": _ROW_COUNTS[codes],
        }
        for array in columns.values():
            array.setflags(write=False)
        return cls(**columns)

    @classmethod
    def from_sites(cls, sites: Sequence[ErrorSite]) -> "SiteTable":
        """Build the columns of *sites* (kept in execution order)."""
        width = max((len(site.qubits) for site in sites), default=0)
        return cls.from_columns(
            codes=np.array([KIND_CODES[site.kind] for site in sites],
                           dtype=np.int64),
            probabilities=np.array([site.probability for site in sites],
                                   dtype=float),
            windows=np.array([site.window for site in sites],
                             dtype=np.int64),
            indices=np.array([site.index for site in sites], dtype=np.int64),
            qubits=np.array(
                [site.qubits + (-1,) * (width - len(site.qubits))
                 for site in sites], dtype=np.int64,
            ).reshape(len(sites), width),
        )

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def correlated(self) -> bool:
        """True when any site is of a :data:`CORRELATED_KINDS` kind."""
        return bool(self.correlated_mask.any())

    def kinds_in_order(self) -> list[str]:
        """The kinds present, in the order each first appears."""
        codes = self.codes
        firsts = [(int(np.argmax(codes == code)), code)
                  for code in np.flatnonzero(np.bincount(
                      codes, minlength=len(SITE_KINDS))).tolist()]
        return [SITE_KINDS[code] for _, code in sorted(firsts)]

    def site(self, position: int) -> ErrorSite:
        """The :class:`ErrorSite` record of site *position*."""
        return self._records(slice(position, position + 1))[0]

    def sites(self) -> tuple[ErrorSite, ...]:
        """Every site as an :class:`ErrorSite` record, in order."""
        return self._records(slice(None))

    def _records(self, rows: slice) -> tuple[ErrorSite, ...]:
        return tuple(
            ErrorSite(index=index, kind=SITE_KINDS[code],
                      qubits=tuple(q for q in qubits if q >= 0),
                      probability=probability, window=window)
            for index, code, qubits, probability, window in zip(
                self.indices[rows].tolist(), self.codes[rows].tolist(),
                self.qubits[rows].tolist(),
                self.probabilities[rows].tolist(),
                self.windows[rows].tolist(),
            )
        )

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
