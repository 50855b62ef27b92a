"""Shot-based Monte-Carlo noise simulation.

Where the analytic simulators multiply per-gate fidelities into a single
scalar, this subsystem *samples* the same model: every potential error
location (an :class:`~repro.noise.channels.ErrorSite`) triggers
independently per shot with probability ``1 - fidelity``, a triggered
unitary site applies a uniformly random non-identity Pauli, and a
triggered measurement site flips its classical bit.  A shot *succeeds*
when no site triggers, so the sampled success rate is an unbiased
estimator of the analytic product-of-fidelities success rate.

A sampler holds its sites as one :class:`~repro.noise.channels.SiteTable`
of columns.  Simulators build it with
:meth:`StochasticSampler.from_timeline` from the timeline columns their
one replay recorded, so no per-site object is made on the way;
``sampler.sites`` builds the :class:`~repro.noise.channels.ErrorSite`
records from the table when asked.

Randomness
----------
Every random number the sampler consumes is a pure function of four
integers, ``u = mix(seed, shot, stream, counter)``, where *shot* is the
global shot index and *stream* says what the number decides:

* :data:`TRIGGER_STREAM` — whether sites trigger, by inverse-CDF *skip
  sampling*: each draw jumps straight to the shot's next triggered site
  through a ``searchsorted`` over a cumulative ``-log1p(-p)`` hazard
  row, so a shot consumes about one draw per trigger instead of one per
  site (error sites with ``probability >= 1`` trigger without a draw,
  sites with ``probability == 0`` never).  A timeline without a heating
  burst is one scan group.  With bursts, each burst-coupling window is
  one, with one hazard row per active-burst count ``k``: a scaled site
  reads ``min(1, p * multiplier ** k)`` there, and a certain site
  carries :data:`CERTAIN_HAZARD`, so the scan always stops at it.  A
  fired burst moves the shot to row ``k + 1``; the scan is memoryless,
  so it resumes there with a fresh draw.  Draw ``r`` of group ``g``
  uses counter ``r * G + g`` for ``G`` groups.
* :data:`LABEL_STREAM` — the label of a triggered site (counter = site
  position), looked up in :data:`~repro.noise.channels.LABEL_TABLE`.
* :data:`OUTCOME_STREAM` — counts mode's measurement-outcome draw
  (counter 0).
* :data:`LEAK_STREAM` — counts mode's fair coin for the readout of a
  leaked qubit (counter = qubit).

Leakage is one deterministic rule over each shot's triggers, applied
after the scan: walking the shot in position order, a trigger whose
site touches a qubit that an earlier surviving leakage trigger leaked
is dropped.  A leak only removes later triggers, never adds one, so it
changes no probability the scan reads.

:func:`mix` is stateless — two SplitMix64 finalizer rounds over uint64
arrays, in the spirit of the counter-based generators of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC'11) — so any set of
draws is one array operation over every shot at once, and results are
bit-identical however the shots are sharded across
:class:`~repro.exec.engine.ExecutionEngine` workers: shard ``[offset,
offset + shots)`` draws exactly the numbers the same shots draw in one
serial pass, and :func:`merge_shot_results` reassembles the full run.

Counts
------
With ``sample_counts=True`` the sampler also produces a measurement
histogram: error-free shots draw from the ideal distribution (computed
once per program and memoised process-wide), and erroneous shots draw
from the circuit re-simulated with their sampled Paulis injected — once
per *distinct* triggered-error pattern, not once per shot
(``last_stats`` reports the grouping).  This is only available up to
:data:`~repro.sim.statevector.MAX_STATEVECTOR_QUBITS` wide circuits;
success-rate estimation alone has no width limit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.channels import (
    BURST_SCALED_KINDS,
    HEATING_BURST,
    KIND_CODES,
    ErrorSite,
    SiteTable,
    kind_mask,
    pauli_gates,
)
from repro.noise.scenarios import (
    NoiseScenario,
    Timeline,
    expected_success_rate as correlated_expected_success_rate,
    scenario_analytics,
)
from repro.sim.result import SimulationResult
from repro.sim.statevector import MAX_STATEVECTOR_QUBITS, StatevectorSimulator

#: 97.5 % normal quantile: the z of a two-sided 95 % confidence interval.
WILSON_Z_95 = 1.959963984540054

#: Default cap on the number of *detailed* per-shot error records kept on a
#: :class:`ShotResult` (the per-shot error counts are always complete).
DEFAULT_MAX_RECORDS = 1024

#: The four streams of :func:`mix` (see the module docstring).
TRIGGER_STREAM = 0
LABEL_STREAM = 1
OUTCOME_STREAM = 2
LEAK_STREAM = 3

_M64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_FMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_FMIX_2 = np.uint64(0x94D049BB133111EB)
_STREAM_SHIFT = np.uint64(56)
_DOUBLE_SCALE = 2.0 ** -53

#: The skip-scan hazard of a site that triggers with certainty: above
#: ``53 ln 2 ≈ 36.74``, the largest increment ``-log1p(-u)`` a 53-bit
#: uniform reaches, with room for rounding.
CERTAIN_HAZARD = 64.0


def wilson_interval(successes: int, shots: int,
                    z: float = WILSON_Z_95) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Unlike the normal approximation it stays inside [0, 1] and remains
    informative at 0 or ``shots`` successes, which is exactly the regime
    deep circuits live in (success rates far below 1/shots).
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    if not 0 <= successes <= shots:
        raise SimulationError(
            f"successes {successes} outside [0, {shots}]"
        )
    p_hat = successes / shots
    z2 = z * z
    denominator = 1.0 + z2 / shots
    centre = (p_hat + z2 / (2.0 * shots)) / denominator
    half_width = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / shots + z2 / (4.0 * shots * shots))
        / denominator
    )
    low = 0.0 if successes == 0 else max(0.0, centre - half_width)
    high = 1.0 if successes == shots else min(1.0, centre + half_width)
    return (low, high)


def _fmix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer: a bijective avalanche of uint64 words."""
    z = (z ^ (z >> np.uint64(30))) * _FMIX_1
    z = (z ^ (z >> np.uint64(27))) * _FMIX_2
    return z ^ (z >> np.uint64(31))


@lru_cache(maxsize=64)
def _seed_key(seed: int) -> np.ndarray:
    """*seed* folded 64 bits at a time into one uint64 word.

    Every word takes one finalizer round, so seeds of any size work and
    ``s`` and ``s + 2**64`` key different streams.  The result has shape
    ``(1,)`` (array arithmetic wraps silently, scalar arithmetic warns)
    and is read-only because the cache shares it.
    """
    if seed < 0:
        raise SimulationError("seed must be non-negative")
    key = np.zeros(1, dtype=np.uint64)
    while True:
        key = _fmix64((key ^ np.uint64(seed & _M64)) + _GOLDEN)
        seed >>= 64
        if not seed:
            break
    key.setflags(write=False)
    return key


def mix(seed: int, shot: Any, stream: int, counter: Any) -> np.ndarray:
    """The uniform in ``[0, 1)`` of draw *counter* of *stream* in *shot*.

    *shot* (a global shot index below ``2**64``) and *counter* (below
    ``2**56``) are integers or integer arrays and broadcast against each
    other; the result is a float64 array of their broadcast shape, at
    least one-dimensional.  The ``(seed, stream, counter)`` triple is
    finalized into a column key; a second finalizer round mixes
    ``key + shot * golden``, the SplitMix64 state *shot* steps past the
    key, and its top 53 bits become the double.
    """
    counter = np.atleast_1d(np.asarray(counter, dtype=np.uint64))
    shot = np.atleast_1d(np.asarray(shot, dtype=np.uint64))
    word = counter | (np.uint64(stream) << _STREAM_SHIFT)
    column = _fmix64(_seed_key(seed) + word * _GOLDEN)
    bits = _fmix64(column + shot * _GOLDEN)
    return (bits >> np.uint64(11)) * _DOUBLE_SCALE


@lru_cache(maxsize=8)
def _ideal_cumulative(num_qubits: int, gates: tuple[Gate, ...],
                      max_qubits: int) -> np.ndarray:
    """Cumulative ideal outcome distribution of one executed program.

    Memoised process-wide (keyed on the gate sequence itself) so shard
    fan-outs and resampling sweeps run the ideal statevector once per
    program instead of once per shard — ``tests/test_stochastic.py``
    counts the invocations.  The returned array is marked read-only
    because every caller shares it.
    """
    circuit = Circuit(num_qubits)
    for gate in gates:
        circuit.append(gate)
    simulator = StatevectorSimulator(max_qubits)
    cumulative = np.cumsum(simulator.probabilities(circuit))
    cumulative.setflags(write=False)
    return cumulative


@dataclass(frozen=True)
class ShotRecord:
    """The errors sampled in one (erroneous) shot.

    ``errors`` holds ``(gate execution index, Pauli label)`` pairs in the
    order the errors occurred; the label is ``"FLIP"`` for measurement
    readout errors.
    """

    shot: int
    errors: tuple[tuple[int, str], ...]

    @property
    def num_errors(self) -> int:
        return len(self.errors)


class ShotRecords(Sequence[ShotRecord]):
    """Read-only :class:`ShotRecord` sequence kept as columns.

    Record ``r`` is global shot ``shots[r]``, whose errors are
    ``(indices[e], labels[e])`` for ``e`` in ``[bounds[r], bounds[r +
    1])``.  A record is built when read, as
    :meth:`~repro.noise.channels.SiteTable.sites` builds sites, and the
    sequence equals any sequence of equal records.
    """

    __slots__ = ("shots", "bounds", "indices", "labels")

    def __init__(self, shots: np.ndarray, bounds: np.ndarray,
                 indices: np.ndarray, labels: np.ndarray) -> None:
        for column in (shots, bounds, indices, labels):
            column.setflags(write=False)
        self.shots, self.bounds = shots, bounds
        self.indices, self.labels = indices, labels

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, Sequence]]
                   ) -> "ShotRecords":
        """The columns of ``(shot, errors)`` pairs, as a
        :class:`ShotRecord` or its JSON form holds them."""
        errors = [error for _, shot_errors in pairs for error in shot_errors]
        return cls(
            np.array([shot for shot, _ in pairs], dtype=np.uint64),
            np.cumsum([0, *(len(shot_errors) for _, shot_errors in pairs)]),
            np.array([index for index, _ in errors], dtype=np.int64),
            np.array([label for _, label in errors], dtype=str),
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ShotRecords"],
                    limit: int) -> "ShotRecords":
        """The records of *parts* in order, the first *limit* of them."""
        counts = np.concatenate([np.diff(part.bounds) for part in parts])
        bounds = np.concatenate(([0], np.cumsum(counts[:limit])))

        def joined(column: str) -> np.ndarray:
            return np.concatenate([getattr(part, column) for part in parts])

        return cls(joined("shots")[:limit], bounds,
                   joined("indices")[:bounds[-1]],
                   joined("labels")[:bounds[-1]])

    def __len__(self) -> int:
        return self.shots.shape[0]

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(map(self.__getitem__, range(len(self))[item]))
        row = range(len(self))[item]
        start, stop = self.bounds[row:row + 2].tolist()
        return ShotRecord(shot=int(self.shots[row]), errors=tuple(zip(
            self.indices[start:stop].tolist(),
            self.labels[start:stop].tolist())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShotRecords):
            return all(np.array_equal(getattr(self, column),
                                      getattr(other, column))
                       for column in self.__slots__)
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __reduce__(self):
        return ShotRecords, (self.shots, self.bounds, self.indices,
                             self.labels)

    def __repr__(self) -> str:
        return f"ShotRecords({list(self)!r})"


@dataclass(frozen=True)
class ShotResult:
    """Outcome of a sampled-noise run (one shard or a merged whole).

    Attributes
    ----------
    architecture, circuit_name:
        Same labels as the corresponding :class:`SimulationResult`.
    shots, seed, shot_offset:
        This result covers global shot indices ``[shot_offset,
        shot_offset + shots)`` of the run rooted at ``seed``.
    successes:
        Number of shots in which no error site triggered.
    errors_per_shot:
        Error count of every shot in the range, in shot order (complete —
        one entry per shot).
    records:
        Detailed :class:`ShotRecord` entries for erroneous shots, in shot
        order, capped at :attr:`max_records` (clean shots carry no
        record).  Always a :class:`ShotRecords`, which holds them as
        columns and builds each record when read; any other sequence of
        records passed in is converted.
    max_records:
        The record cap this result was sampled under.
        :func:`merge_shot_results` re-applies it after concatenating
        shard records, so a merged run keeps exactly the records a
        serial pass would have kept.
    counts:
        Measurement histogram (bit string, qubit 0 leftmost -> count), or
        ``None`` when counts sampling was disabled.
    num_error_sites:
        How many fallible locations the executed program exposed.
    expected_success_rate:
        The analytic product of per-site survival probabilities — the
        closed-form success rate the sampled estimate converges to.
    analytic:
        The corresponding analytic :class:`SimulationResult`, when the
        producing simulator attached one (interop with every consumer of
        the analytic pipeline).
    mechanism_counts:
        Per-run noise telemetry: total triggered events by site kind
        (``"pauli2"``, ``"crosstalk"``, ``"leakage"``,
        ``"heating_burst"``, ...) across every shot in the range.  Bursts
        are counted here even though they are not error events.
    mechanism_shots:
        Number of shots in which each site kind *triggered* at least
        once.  For error kinds this is the empirical per-mechanism
        shot-loss attribution; ``"heating_burst"`` counts shots where a
        burst fired, which need not have failed (a burst only raises
        later error probabilities).
    """

    architecture: str
    circuit_name: str
    shots: int
    seed: int
    shot_offset: int
    successes: int
    errors_per_shot: tuple[int, ...]
    records: Sequence[ShotRecord] = ()
    max_records: int = DEFAULT_MAX_RECORDS
    counts: dict[str, int] | None = None
    num_error_sites: int = 0
    expected_success_rate: float = 1.0
    analytic: SimulationResult | None = None
    mechanism_counts: dict[str, int] | None = None
    mechanism_shots: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.shots <= 0:
            raise SimulationError("a shot result needs at least one shot")
        if not 0 <= self.successes <= self.shots:
            raise SimulationError("successes outside [0, shots]")
        if len(self.errors_per_shot) != self.shots:
            raise SimulationError(
                "errors_per_shot must have exactly one entry per shot"
            )
        if not isinstance(self.records, ShotRecords):
            object.__setattr__(self, "records", ShotRecords.from_pairs(
                [(record.shot, record.errors) for record in self.records]))
        if len(self.records) > self.max_records:
            raise SimulationError("records exceed the max_records cap")

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    @property
    def success_rate(self) -> float:
        """Sampled success probability (successes / shots)."""
        return self.successes / self.shots

    @property
    def confidence_interval(self) -> tuple[float, float]:
        """95 % Wilson confidence interval of the success rate."""
        return wilson_interval(self.successes, self.shots)

    @property
    def mean_errors_per_shot(self) -> float:
        """Average number of sampled errors per shot."""
        return sum(self.errors_per_shot) / self.shots

    def agrees_with_analytic(self, rate: float | None = None) -> bool:
        """True when the analytic rate lies inside the 95 % interval.

        *rate* defaults to the attached analytic result's success rate
        (falling back to :attr:`expected_success_rate`).
        """
        if rate is None:
            rate = (self.analytic.success_rate if self.analytic is not None
                    else self.expected_success_rate)
        low, high = self.confidence_interval
        return low <= rate <= high

    # ------------------------------------------------------------------
    # Interop with the analytic pipeline
    # ------------------------------------------------------------------
    def to_simulation_result(self) -> SimulationResult:
        """Package the sampled estimate as a :class:`SimulationResult`.

        Structural fields (gate counts, moves, execution time) come from
        the attached analytic result when present; the success rate is the
        sampled estimate and ``extras`` carries shots and the confidence
        interval, so sampled and analytic results flow through the same
        comparison and reporting code.
        """
        rate = self.success_rate
        low, high = self.confidence_interval
        extras = {
            "shots": float(self.shots),
            "ci_low": low,
            "ci_high": high,
            "sampled": 1.0,
        }
        if self.mechanism_counts:
            for kind, count in self.mechanism_counts.items():
                extras[f"errors_{kind}"] = float(count)
        if self.mechanism_shots:
            for kind, count in self.mechanism_shots.items():
                extras[f"shots_with_{kind}"] = float(count)
        if self.analytic is not None:
            base = self.analytic
            extras = {**base.extras, **extras}
            return dataclasses.replace(
                base,
                success_rate=rate,
                log10_success_rate=(
                    math.log10(rate) if rate > 0 else float("-inf")
                ),
                extras=extras,
            )
        return SimulationResult(
            architecture=self.architecture,
            circuit_name=self.circuit_name,
            success_rate=rate,
            log10_success_rate=math.log10(rate) if rate > 0 else float("-inf"),
            execution_time_us=0.0,
            num_gates=0,
            num_two_qubit_gates=0,
            num_moves=0,
            move_distance_um=0.0,
            average_gate_fidelity=0.0,
            worst_gate_fidelity=0.0,
            extras=extras,
        )

    def summary(self) -> str:
        """One-line human-readable result."""
        low, high = self.confidence_interval
        return (
            f"{self.architecture:<16} {self.circuit_name:<8} "
            f"shots={self.shots} success={self.success_rate:.4f} "
            f"[{low:.4f}, {high:.4f}] "
            f"analytic={self.expected_success_rate:.3e} "
            f"mean_errors={self.mean_errors_per_shot:.2f}"
        )


def merge_shot_results(results: Sequence[ShotResult]) -> ShotResult:
    """Reassemble contiguous shards into the full run's :class:`ShotResult`.

    Shards must share architecture, circuit, seed and error model, and
    their shot ranges must tile ``[first offset, first offset + total)``
    without gaps.  Because every draw is a pure function of the seed and
    the global shot index, the merge of ``N`` shards is bit-identical to
    a single serial run.

    Mechanism telemetry merges by summation, but only when *every* shard
    carries it: a shard served from a pre-telemetry disk cache
    deserialises with ``mechanism_counts=None``, and summing around a
    missing shard would fabricate under-counted totals, so the merged
    telemetry conservatively degrades to ``None`` instead.
    """
    if not results:
        raise SimulationError("cannot merge an empty list of shot results")
    ordered = sorted(results, key=lambda result: result.shot_offset)
    first = ordered[0]
    counts: dict[str, int] | None = (
        {} if all(result.counts is not None for result in ordered) else None
    )
    mechanism_counts: dict[str, int] | None = (
        {} if all(result.mechanism_counts is not None for result in ordered)
        else None
    )
    mechanism_shots: dict[str, int] | None = (
        {} if all(result.mechanism_shots is not None for result in ordered)
        else None
    )
    errors_per_shot: list[int] = []
    successes = 0
    next_offset = first.shot_offset
    for result in ordered:
        if (result.architecture != first.architecture
                or result.circuit_name != first.circuit_name
                or result.seed != first.seed
                or result.num_error_sites != first.num_error_sites
                or result.max_records != first.max_records):
            raise SimulationError(
                "cannot merge shot results from different runs"
            )
        if result.shot_offset != next_offset:
            raise SimulationError(
                f"shot shards are not contiguous: expected offset "
                f"{next_offset}, got {result.shot_offset}"
            )
        next_offset += result.shots
        successes += result.successes
        errors_per_shot.extend(result.errors_per_shot)
        if counts is not None and result.counts is not None:
            for outcome, count in result.counts.items():
                counts[outcome] = counts.get(outcome, 0) + count
        if mechanism_counts is not None and result.mechanism_counts is not None:
            for kind, count in result.mechanism_counts.items():
                mechanism_counts[kind] = mechanism_counts.get(kind, 0) + count
        if mechanism_shots is not None and result.mechanism_shots is not None:
            for kind, count in result.mechanism_shots.items():
                mechanism_shots[kind] = mechanism_shots.get(kind, 0) + count
    return ShotResult(
        architecture=first.architecture,
        circuit_name=first.circuit_name,
        shots=next_offset - first.shot_offset,
        seed=first.seed,
        shot_offset=first.shot_offset,
        successes=successes,
        errors_per_shot=tuple(errors_per_shot),
        # shards cap records independently; re-applying the cap to the
        # concatenation keeps exactly what one serial pass would keep
        records=ShotRecords.concatenate(
            [result.records for result in ordered], first.max_records),
        max_records=first.max_records,
        counts=counts,
        num_error_sites=first.num_error_sites,
        expected_success_rate=first.expected_success_rate,
        analytic=first.analytic,
        mechanism_counts=mechanism_counts,
        mechanism_shots=mechanism_shots,
    )


@dataclass
class StochasticSampler:
    """Monte-Carlo sampler over a fixed table of error sites.

    Every simulator builds its sampler with :meth:`from_timeline`, from
    the execution timeline its replay produced; the sampler is
    architecture-agnostic from there on.

    Parameters
    ----------
    architecture, circuit_name:
        Labels carried onto the :class:`ShotResult`.
    table:
        The fallible locations of the executed program, as columns
        (:meth:`SiteTable.from_sites
        <repro.noise.channels.SiteTable.from_sites>` builds one from
        :class:`~repro.noise.channels.ErrorSite` records).
    gates:
        The executed gate sequence (dependency-respecting order).  Only
        needed for counts sampling.
    num_qubits:
        Register width of the executed program (counts sampling only).
    analytic:
        Optional analytic result to attach to every :class:`ShotResult`.
    """

    architecture: str
    circuit_name: str
    table: SiteTable = field(repr=False, compare=False)
    gates: Sequence[Gate] | None = None
    num_qubits: int | None = None
    analytic: SimulationResult | None = None
    burst_multiplier: float = 1.0
    #: The producing simulator may pass the closed-form rate it already
    #: computed (the correlated burst DP is too heavy to run twice).
    expected_rate: float | None = None
    max_statevector_qubits: int = MAX_STATEVECTOR_QUBITS
    _expected_success_rate: float = field(init=False, repr=False)
    #: Diagnostics of the most recent :meth:`run`: counts-mode statevector
    #: ``resimulations`` and ``distinct_patterns``.
    last_stats: dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _scan_cache: tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]] | None \
        = field(default=None, init=False, repr=False, compare=False)
    _kind_cache: tuple[tuple[str, np.ndarray], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Computed once: the correlated form runs the per-window burst
        # DP, which is too heavy to redo on every property access.
        self._expected_success_rate = self._compute_expected_success_rate()

    @classmethod
    def from_timeline(cls, timeline: Timeline, scenario: NoiseScenario,
                      analytic: SimulationResult,
                      num_qubits: int) -> "StochasticSampler":
        """The sampler of one simulator's execution timeline.

        *analytic* is the baseline result of the replay that recorded
        *timeline*; the sampler carries its labels.  The sites are
        :meth:`Timeline.site_table
        <repro.noise.scenarios.Timeline.site_table>` and the gates are
        the timeline's, in order.  A non-baseline *scenario* runs the
        exact :func:`~repro.noise.scenarios.scenario_analytics` once, for
        the expected rate and the adjusted *analytic*; under baseline
        the expected rate is the sites' survival product.
        """
        table = timeline.site_table(scenario)
        expected_rate = None
        if not scenario.is_baseline:
            analytics = scenario_analytics(table, scenario)
            expected_rate = analytics.success_rate
            analytic = analytics.apply_to(analytic)
        return cls(
            architecture=analytic.architecture,
            circuit_name=analytic.circuit_name,
            table=table,
            gates=timeline.gates,
            num_qubits=num_qubits,
            analytic=analytic,
            burst_multiplier=scenario.burst_error_multiplier,
            expected_rate=expected_rate,
        )

    @property
    def sites(self) -> tuple[ErrorSite, ...]:
        """The sites as :class:`~repro.noise.channels.ErrorSite` records,
        built from the table on each access."""
        return self.table.sites()

    # ------------------------------------------------------------------
    # The analytic reference
    # ------------------------------------------------------------------
    def _compute_expected_success_rate(self) -> float:
        if self.expected_rate is not None:
            return self.expected_rate
        if self.table.correlated:
            return correlated_expected_success_rate(
                self.table, self.burst_multiplier
            )
        log_total = 0.0
        for probability in self.table.probabilities.tolist():
            if probability >= 1.0:
                return 0.0
            log_total += math.log1p(-probability)
        return math.exp(log_total)

    @property
    def expected_success_rate(self) -> float:
        """P(no error event) — the analytic rate the sampler converges to.

        Independent sites multiply their survival probabilities; with
        heating-burst sites present the exact per-window dynamic program
        of :mod:`repro.noise.scenarios` is used instead, so correlated
        runs still converge to a closed-form reference.
        """
        return self._expected_success_rate

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def run(self, shots: int, *, seed: int = 0, shot_offset: int = 0,
            sample_counts: bool = False,
            max_records: int = DEFAULT_MAX_RECORDS) -> ShotResult:
        """Sample shots ``[shot_offset, shot_offset + shots)``.

        Every draw is ``mix(seed, shot, stream, counter)`` (see the
        module docstring), so results do not depend on how shots are
        batched, sharded or backed.  Trigger sampling runs over all
        shots at once; the labels of the recorded shots' errors (of
        every shot's, in counts mode) are one lookup into the label
        table.
        """
        if shots <= 0:
            raise SimulationError("shots must be positive")
        if max_records < 0:
            raise SimulationError("max_records cannot be negative")
        if seed < 0 or shot_offset < 0:
            raise SimulationError("seed and shot index must be non-negative")
        if shot_offset + shots > 1 << 64:
            raise SimulationError("global shot indices must fit in 64 bits")
        shot_indices = np.arange(shot_offset, shot_offset + shots,
                                 dtype=np.uint64)
        trigger_shots, trigger_positions, burst_shots = self._scan_triggers(
            seed, shot_indices
        )
        trigger_shots, trigger_positions = self._suppress_leaked(
            trigger_shots, trigger_positions
        )
        mechanism_counts, mechanism_shots = self._trigger_telemetry(
            trigger_shots, trigger_positions, burst_shots
        )
        counts_per_shot = np.bincount(trigger_shots, minlength=shots)
        ends = np.cumsum(counts_per_shot)
        recorded = np.flatnonzero(counts_per_shot)[:max_records]
        # triggers are sorted by shot, so the recorded shots' triggers
        # are a prefix of them; counts mode labels every trigger
        bounds = np.concatenate(([0], ends[recorded]))
        labelled = trigger_shots.size if sample_counts else bounds[-1]
        positions = trigger_positions[:labelled]
        labels = self.table.lookup_labels(
            positions,
            mix(seed, shot_indices[trigger_shots[:labelled]], LABEL_STREAM,
                positions),
        )
        records = ShotRecords(shot_indices[recorded], bounds,
                              self.table.indices[positions[:bounds[-1]]],
                              labels[:bounds[-1]])
        self.last_stats = {"resimulations": 0, "distinct_patterns": 0}
        counts = (self._sample_counts(seed, shot_indices, trigger_shots,
                                      trigger_positions,
                                      [0, *ends.tolist()], labels.tolist())
                  if sample_counts else None)
        return ShotResult(
            architecture=self.architecture,
            circuit_name=self.circuit_name,
            shots=shots,
            seed=seed,
            shot_offset=shot_offset,
            successes=int(np.count_nonzero(counts_per_shot == 0)),
            errors_per_shot=tuple(counts_per_shot.tolist()),
            records=records,
            max_records=max_records,
            counts=counts,
            num_error_sites=len(self.table),
            expected_success_rate=self.expected_success_rate,
            analytic=self.analytic,
            mechanism_counts=mechanism_counts,
            mechanism_shots=mechanism_shots,
        )

    # ------------------------------------------------------------------
    # Trigger sampling
    # ------------------------------------------------------------------
    def _scan_groups(self) -> tuple[np.ndarray,
                                    tuple[tuple[np.ndarray, ...], ...]]:
        """The skip scan's tables (cached).

        Error sites with ``p >= 1`` trigger on every shot without a draw
        (``sure_positions``) and ``p <= 0`` sites never trigger; every
        other site is scanned.  A timeline without a heating burst is
        one scan group, and a timeline with bursts has one per
        burst-coupling window.  Each group is ``(positions, bursts,
        hazards, boundaries)``: its scanned sites in execution order,
        which of them are bursts, one cumulative hazard row per
        active-burst count (:meth:`_hazard_rows`), and the same rows
        shifted right by one, so ``boundaries[k, r]`` is the hazard
        already consumed when the scan resumes at scan index ``r``.
        """
        cached = self._scan_cache
        if cached is None:
            table = self.table
            probabilities = table.probabilities
            bursts = table.burst_mask
            scanned = (probabilities > 0.0) & ((probabilities < 1.0) | bursts)
            if bursts.any():
                scalable = kind_mask(table.codes, BURST_SCALED_KINDS)
                members = [table.windows == window
                           for window in sorted(set(table.windows.tolist()))]
            else:
                # one scan group, and no burst to scale any site
                scalable = bursts
                members = [scanned]
            groups = []
            for member in members:
                positions = np.flatnonzero(scanned & member)
                hazards = self._hazard_rows(probabilities[positions],
                                            scalable[positions],
                                            int(bursts[positions].sum()))
                boundaries = np.concatenate(
                    (np.zeros((hazards.shape[0], 1)), hazards), axis=1
                )
                groups.append((positions, bursts[positions], hazards,
                               boundaries))
            sure_positions = np.flatnonzero(~bursts & (probabilities >= 1.0))
            cached = (sure_positions, tuple(groups))
            self._scan_cache = cached
        return cached

    def _hazard_rows(self, probabilities: np.ndarray, scalable: np.ndarray,
                     num_bursts: int) -> np.ndarray:
        """Cumulative ``-log1p(-p)`` hazard rows of one scan group.

        Row ``k`` is read by shots with ``k`` active bursts: a
        burst-scalable site's ``p`` there is ``min(1, p * multiplier **
        k)``, an overflowing power saturating to 1, and a certain site
        carries :data:`CERTAIN_HAZARD`.  Rows stop at the group's burst
        count, or at the first ``k`` where every scalable site is
        certain, since every later row would equal that one.
        """
        rows = [probabilities]
        while (len(rows) <= num_bursts
               and not (rows[-1][scalable] >= 1.0).all()):
            try:
                scale = float(self.burst_multiplier ** len(rows))
            except OverflowError:
                scale = math.inf
            row = probabilities.copy()
            row[scalable] = np.minimum(1.0, probabilities[scalable] * scale)
            rows.append(row)
        rows = np.array(rows)
        hazards = np.full(rows.shape, CERTAIN_HAZARD)
        uncertain = rows < 1.0
        hazards[uncertain] = -np.log1p(-rows[uncertain])
        return np.cumsum(hazards, axis=1)

    def _scan_triggers(
        self, seed: int, shot_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse ``(shot, site position)`` error triggers, lexsorted by
        shot, and the shot of every fired burst.

        The skip scan over all shots at once, one group and one hazard
        row at a time: a shot's next draw becomes an exponential hazard
        increment and jumps via ``searchsorted`` straight to its next
        triggered site.  A shot that stops at a burst moves on to the
        next row (the last row keeps it), resuming after the burst with
        a fresh draw; a shot whose jump passes the group's last site
        retires.  Draw ``r`` of group ``g`` uses counter ``r * G + g``.
        Bursts are telemetry, not error events, so they are returned
        apart from the triggers.
        """
        sure_positions, groups = self._scan_groups()
        shots = shot_indices.shape[0]
        shot_parts: list[np.ndarray] = []
        position_parts: list[np.ndarray] = []
        burst_parts: list[np.ndarray] = []
        for group, (positions, bursts, hazards, boundaries) in enumerate(
            groups
        ):
            num_scan = positions.shape[0]
            last_row = hazards.shape[0] - 1
            # one column per shot entering a row: the shot, the scan
            # index it resumes at and the draws it made in this group
            state = np.zeros((3, shots if num_scan else 0), dtype=np.int64)
            state[0] = np.arange(state.shape[1])
            hits = []
            for row in range(last_row + 1):
                climbed = []
                while state.shape[1]:
                    active, resume, draws = state
                    # every shot in row 0 has made the same number of draws
                    uniforms = mix(seed, shot_indices[active], TRIGGER_STREAM,
                                   (draws[:1] if row == 0 else draws)
                                   * len(groups) + group)
                    jumps = np.searchsorted(
                        hazards[row],
                        boundaries[row][resume] - np.log1p(-uniforms),
                        side="right",
                    )
                    state[1] = jumps + 1
                    state[2] += 1
                    state = state.compress(jumps < num_scan, axis=1)
                    hits.append(state[:2])
                    going = state[1] < num_scan
                    if row < last_row:
                        climbing = going & bursts[state[1] - 1]
                        climbed.append(state.compress(climbing, axis=1))
                        going &= ~climbing
                    state = state.compress(going, axis=1)
                if climbed:
                    state = np.concatenate(climbed, axis=1)
            if hits:
                hit_shots, resumed = np.concatenate(hits, axis=1)
                burst = bursts[resumed - 1]
                burst_parts.append(hit_shots[burst])
                shot_parts.append(hit_shots[~burst])
                position_parts.append(positions[resumed[~burst] - 1])
        if sure_positions.size:
            shot_parts.append(
                np.repeat(np.arange(shots, dtype=np.int64),
                          sure_positions.size)
            )
            position_parts.append(np.tile(sure_positions, shots))
        burst_shots = (np.concatenate(burst_parts) if burst_parts
                       else np.empty(0, dtype=np.int64))
        return (*_lexsorted(shot_parts, position_parts), burst_shots)

    def _suppress_leaked(
        self, trigger_shots: np.ndarray, trigger_positions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-shot leak rule over lexsorted sparse triggers.

        Walking each shot's triggers in position order, a trigger whose
        site touches a qubit that an earlier surviving leakage trigger
        leaked is dropped: the shot already failed, and later gates on
        the leaked qubit act as identity-with-error.  Crosstalk kicks
        from a gate with a leaked operand still fire (their site is the
        spectator ion): the laser pulses either way.  A leakage site
        leaks its one qubit, so a shot's first leak of each qubit always
        survives and the walk is one lookup per trigger and qubit.
        """
        leaks = self.table.leak_mask[trigger_positions]
        if not leaks.any():
            return trigger_shots, trigger_positions
        qubits = self.table.qubits
        stride = int(qubits.max()) + 1
        # (shot, qubit) keys of the leaks; np.unique keeps each key's
        # first occurrence, which is its earliest leak in the shot
        leak_keys, first = np.unique(
            trigger_shots[leaks] * stride
            + qubits[trigger_positions[leaks], 0],
            return_index=True,
        )
        leaked_at = trigger_positions[leaks][first]
        touched = qubits[trigger_positions]
        probes = trigger_shots[:, None] * stride + touched
        slots = np.minimum(np.searchsorted(leak_keys, probes),
                           leak_keys.size - 1)
        dropped = ((leak_keys[slots] == probes) & (touched >= 0)
                   & (leaked_at[slots] < trigger_positions[:, None]))
        keep = ~dropped.any(axis=1)
        return trigger_shots[keep], trigger_positions[keep]

    def _kind_selectors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Per error kind in site order, which sites carry it (cached)."""
        cached = self._kind_cache
        if cached is None:
            codes = self.table.codes
            cached = tuple(
                (kind, codes == KIND_CODES[kind])
                for kind in self.table.kinds_in_order()
                if kind != HEATING_BURST
            )
            self._kind_cache = cached
        return cached

    def _trigger_telemetry(
        self, trigger_shots: np.ndarray, trigger_positions: np.ndarray,
        burst_shots: np.ndarray,
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Mechanism telemetry aggregated from sparse triggers and the
        shots of the fired bursts."""
        mechanism_counts: dict[str, int] = {}
        mechanism_shots: dict[str, int] = {}
        if trigger_shots.size:
            for kind, sites in self._kind_selectors():
                selector = sites[trigger_positions]
                total = int(np.count_nonzero(selector))
                if total:
                    mechanism_counts[kind] = total
                    mechanism_shots[kind] = int(np.count_nonzero(
                        np.bincount(trigger_shots[selector])
                    ))
        if burst_shots.size:
            mechanism_counts[HEATING_BURST] = burst_shots.size
            mechanism_shots[HEATING_BURST] = int(
                np.count_nonzero(np.bincount(burst_shots))
            )
        return mechanism_counts, mechanism_shots

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    def _sample_counts(self, seed: int, shot_indices: np.ndarray,
                       trigger_shots: np.ndarray,
                       trigger_positions: np.ndarray, bounds: list[int],
                       labels: list[str]) -> dict[str, int]:
        """The measurement histogram of the sampled shots.

        Each shot's outcome is its outcome-stream uniform looked up in
        the cumulative distribution of its error pattern (the ideal one
        when no Pauli or leak triggered; otherwise the circuit
        re-simulated with the pattern's Paulis injected and leaked
        qubits' later gates dropped, once per distinct pattern).  Then
        readout flips XOR their qubits' bits and every leaked qubit
        reads out its leak-stream coin (heads = 1).
        """
        base_circuit = self._counts_circuit()
        assert self.gates is not None
        n = base_circuit.num_qubits
        ideal = _ideal_cumulative(n, tuple(self.gates),
                                  self.max_statevector_qubits)
        table = self.table
        uniforms = mix(seed, shot_indices, OUTCOME_STREAM, 0)
        indices = np.searchsorted(ideal, uniforms, side="right")
        patterned = (table.label_mask[trigger_positions]
                     | table.leak_mask[trigger_positions])
        # pattern grouping is the one walk over shots
        groups: dict[tuple[Any, Any], list[int]] = {}
        positions = trigger_positions.tolist()
        for shot in np.flatnonzero(
            np.bincount(trigger_shots[patterned])
        ).tolist():
            paulis: list[tuple[int, str]] = []
            leaked_at: dict[int, int] = {}
            for trigger in range(bounds[shot], bounds[shot + 1]):
                position = positions[trigger]
                if table.leak_mask[position]:
                    leaked_at.setdefault(int(table.qubits[position, 0]),
                                         int(table.indices[position]))
                elif table.label_mask[position]:
                    paulis.append((position, labels[trigger]))
            key = (tuple(paulis), tuple(sorted(leaked_at.items())))
            groups.setdefault(key, []).append(shot)
        simulator = StatevectorSimulator(self.max_statevector_qubits)
        for (paulis, leaks), members in groups.items():
            injections: dict[int, list[Gate]] = {}
            for position, label in paulis:
                site = table.site(position)
                injections.setdefault(site.index, []).extend(
                    pauli_gates(site, label)
                )
            perturbed = self._build_perturbed(injections, dict(leaks),
                                              base_circuit)
            cumulative = np.cumsum(simulator.probabilities(perturbed))
            indices[members] = np.searchsorted(cumulative, uniforms[members],
                                               side="right")
        self.last_stats = {"resimulations": len(groups),
                           "distinct_patterns": len(groups)}
        np.minimum(indices, len(ideal) - 1, out=indices)
        flips = table.flip_mask[trigger_positions]
        np.bitwise_xor.at(
            indices, trigger_shots[flips],
            self._qubit_bits(table.flip_mask, n)[trigger_positions[flips]],
        )
        leaks = table.leak_mask[trigger_positions]
        leak_words = np.zeros(indices.shape[0], dtype=np.int64)
        np.bitwise_or.at(
            leak_words, trigger_shots[leaks],
            self._qubit_bits(table.leak_mask, n)[trigger_positions[leaks]],
        )
        leaked_shots = np.flatnonzero(leak_words)
        if leaked_shots.size:
            coins = mix(seed, shot_indices[leaked_shots, None], LEAK_STREAM,
                        np.arange(n)) < 0.5
            heads = coins.astype(np.int64) @ (
                1 << np.arange(n - 1, -1, -1, dtype=np.int64)
            )
            words = leak_words[leaked_shots]
            indices[leaked_shots] = ((indices[leaked_shots] & ~words)
                                     | (heads & words))
        outcomes, tallies = np.unique(indices, return_counts=True)
        return {format(outcome, f"0{n}b"): tally
                for outcome, tally in zip(outcomes.tolist(),
                                          tallies.tolist())}

    def _qubit_bits(self, mask: np.ndarray, n: int) -> np.ndarray:
        """Per-site outcome bits of the sites in *mask* (qubit 0 = MSB)."""
        bits = np.zeros(len(self.table), dtype=np.int64)
        qubits = self.table.qubits
        for position in np.flatnonzero(mask).tolist():
            for qubit in qubits[position].tolist():
                if qubit >= 0:
                    bits[position] |= 1 << (n - 1 - qubit)
        return bits

    def _build_perturbed(self, injections: dict[int, list[Gate]],
                         leaked_at: dict[int, int],
                         base_circuit: Circuit) -> Circuit:
        """The erroneous circuit of one triggered-error pattern.

        Sampled Pauli gates are injected right after their base gate;
        gates strictly after a leak that touch the leaked qubit are
        dropped.
        """
        assert self.gates is not None
        perturbed = Circuit(base_circuit.num_qubits, name=base_circuit.name)
        for index, gate in enumerate(self.gates):
            dropped = any(
                leaked_at.get(qubit, index + 1) < index
                for qubit in gate.qubits
            )
            if not dropped:
                perturbed.append(gate)
            for extra in injections.get(index, ()):
                perturbed.append(extra)
        return perturbed

    def _counts_circuit(self) -> Circuit:
        if self.gates is None or self.num_qubits is None:
            raise SimulationError(
                "counts sampling needs the executed gate sequence; "
                "construct the sampler with gates= and num_qubits= or "
                "pass sample_counts=False"
            )
        if self.num_qubits > self.max_statevector_qubits:
            raise SimulationError(
                f"counts sampling is limited to "
                f"{self.max_statevector_qubits} qubits, got "
                f"{self.num_qubits}; success-rate sampling "
                f"(sample_counts=False) has no width limit"
            )
        circuit = Circuit(self.num_qubits, name=self.circuit_name)
        for gate in self.gates:
            circuit.append(gate)
        return circuit


def _lexsorted(shot_parts: list[np.ndarray],
               position_parts: list[np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``(shot, position)`` triggers, sorted by shot then
    position."""
    if not shot_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    trigger_shots = np.concatenate(shot_parts)
    trigger_positions = np.concatenate(position_parts)
    order = np.lexsort((trigger_positions, trigger_shots))
    return trigger_shots[order], trigger_positions[order]


# ----------------------------------------------------------------------
# JSON (de)serialisation, used by the execution engine's disk cache
# ----------------------------------------------------------------------
def shot_result_to_json(result: ShotResult) -> dict[str, Any]:
    """Serialise a :class:`ShotResult` to a plain-JSON dict."""
    return {
        "architecture": result.architecture,
        "circuit_name": result.circuit_name,
        "shots": result.shots,
        "seed": result.seed,
        "shot_offset": result.shot_offset,
        "successes": result.successes,
        "errors_per_shot": list(result.errors_per_shot),
        "records": _records_to_json(result.records),
        "max_records": result.max_records,
        "counts": result.counts,
        "num_error_sites": result.num_error_sites,
        "expected_success_rate": result.expected_success_rate,
        "analytic": (
            dataclasses.asdict(result.analytic)
            if result.analytic is not None else None
        ),
        "mechanism_counts": result.mechanism_counts,
        "mechanism_shots": result.mechanism_shots,
    }


def _records_to_json(records: ShotRecords) -> list[list[Any]]:
    """``[shot, [[index, label], ...]]`` per record, read from the
    columns."""
    errors = [list(error) for error in zip(records.indices.tolist(),
                                           records.labels.tolist())]
    bounds = records.bounds.tolist()
    return [[shot, errors[bounds[row]:bounds[row + 1]]]
            for row, shot in enumerate(records.shots.tolist())]


def shot_result_from_json(payload: dict[str, Any]) -> ShotResult:
    """Rebuild a :class:`ShotResult` from its JSON form."""
    analytic = payload.get("analytic")
    return ShotResult(
        architecture=payload["architecture"],
        circuit_name=payload["circuit_name"],
        shots=int(payload["shots"]),
        seed=int(payload["seed"]),
        shot_offset=int(payload.get("shot_offset", 0)),
        successes=int(payload["successes"]),
        errors_per_shot=tuple(int(x) for x in payload["errors_per_shot"]),
        records=ShotRecords.from_pairs(payload.get("records", [])),
        max_records=int(payload.get("max_records", DEFAULT_MAX_RECORDS)),
        counts=(
            {str(k): int(v) for k, v in payload["counts"].items()}
            if payload.get("counts") is not None else None
        ),
        num_error_sites=int(payload.get("num_error_sites", 0)),
        expected_success_rate=float(
            payload.get("expected_success_rate", 1.0)
        ),
        analytic=(
            SimulationResult(**analytic) if analytic is not None else None
        ),
        mechanism_counts=(
            {str(k): int(v) for k, v in payload["mechanism_counts"].items()}
            if payload.get("mechanism_counts") is not None else None
        ),
        mechanism_shots=(
            {str(k): int(v) for k, v in payload["mechanism_shots"].items()}
            if payload.get("mechanism_shots") is not None else None
        ),
    )
