"""Correlated-noise scenarios: crosstalk, leakage and heating bursts.

The paper's Eq. 4 model treats every gate error as independent, but the
TILT architecture's single shared chain makes *correlated* mechanisms the
physically dominant threats at scale (Sections II-B, IV-E, VII):

* **crosstalk** — the laser head is not perfectly confined, so every MS
  gate deposits a small depolarizing kick on the spectator ions sitting
  under the head window, decaying geometrically with ion distance;
* **leakage** — a gate occasionally pumps a qubit out of the computational
  subspace; a leaked qubit makes every later gate touching it act as
  identity-with-error and turns its measurement into a coin flip;
* **heating bursts** — a shuttle occasionally deposits a multi-quanta
  motional burst that scales the error of *every* later gate until the
  next cooling event re-grounds the chain.

This module is declarative: a :class:`NoiseScenario` names one
configuration of the three mechanisms, and a process-wide registry maps
names (``"baseline"``, ``"crosstalk"``, ``"leakage"``,
``"heating_burst"``, ``"worst_case"``) to configs.  A simulator's one
replay emits its execution timeline as columns (a :class:`Timeline`: per
executed gate its fidelity and burst-coupling window, the spectators a
crosstalk kick can reach, the shuttles), and :meth:`Timeline.site_table`
expands those columns with numpy into the
:class:`~repro.noise.channels.SiteTable` the stochastic sampler
consumes: each gate's Eq. 4 site plus the scenario's extra ones.  The
analytic counterpart, :func:`scenario_analytics`, reads the same table
and computes the *exact* closed-form success rate of the correlated
model — bursts are handled by a per-window dynamic program over the
number of active bursts, so the analytic and sampled paths agree by
construction, not by approximation.

Adding a new mechanism means adding a new ``ErrorSite`` kind (see the
README section "Adding a new ErrorSite kind") plus its site family in
:meth:`Timeline.site_table` — never a new simulator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence, Union

import numpy as np

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.channels import (
    CROSSTALK,
    HEATING_BURST,
    KIND_CODES,
    LEAKAGE,
    MEASURE_FLIP,
    PAULI_1Q,
    PAULI_2Q,
    SiteTable,
)

#: Mechanism names, in the order attribution tables report them.
MECHANISMS = ("crosstalk", "leakage", "heating_burst")


@dataclass(frozen=True)
class NoiseScenario:
    """One named configuration of the correlated-noise mechanisms.

    Attributes
    ----------
    name:
        Registry key (``JobSpec(scenario=...)`` carries this string).
    description:
        One-line human-readable summary.
    crosstalk_strength:
        Depolarizing-kick probability on a spectator ion at distance 1
        from an MS gate's nearest operand (0 disables crosstalk).
    crosstalk_decay:
        Geometric decay of the kick per additional ion of distance.
    crosstalk_range:
        Farthest spectator distance (in ion spacings) that still receives
        a kick; bounds the number of sites per gate.
    leakage_rate_1q / leakage_rate_2q:
        Per-qubit probability that a one-/two-qubit gate pumps that qubit
        out of the computational subspace (0 disables leakage).
    burst_probability:
        Probability that one shuttle (TILT tape move / QCCD transport)
        deposits a heating burst (0 disables bursts).
    burst_error_multiplier:
        Factor by which each active burst scales the error probability of
        every later gate-level site in its burst-coupling window (the
        stretch until the next full cooling event), compounding per burst
        and capped at probability 1.
    """

    name: str
    description: str = ""
    crosstalk_strength: float = 0.0
    crosstalk_decay: float = 0.5
    crosstalk_range: int = 3
    leakage_rate_1q: float = 0.0
    leakage_rate_2q: float = 0.0
    burst_probability: float = 0.0
    burst_error_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("a scenario needs a non-empty name")
        for attribute in ("crosstalk_strength", "leakage_rate_1q",
                          "leakage_rate_2q", "burst_probability"):
            value = getattr(self, attribute)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{attribute} must be in [0, 1]")
        if not 0.0 < self.crosstalk_decay <= 1.0:
            raise SimulationError("crosstalk_decay must be in (0, 1]")
        if self.crosstalk_range < 1:
            raise SimulationError("crosstalk_range must be >= 1")
        if self.burst_error_multiplier < 1.0:
            raise SimulationError(
                "burst_error_multiplier must be >= 1 (a burst never "
                "improves a gate)"
            )
        if self.burst_probability > 0.0 and self.burst_error_multiplier == 1.0:
            raise SimulationError(
                "burst_probability > 0 with burst_error_multiplier = 1 is "
                "silently inert: bursts would fire (each costing the "
                "sampler a draw) without scaling any error"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mechanisms(self) -> tuple[str, ...]:
        """The mechanisms this scenario switches on, in report order."""
        active = []
        if self.crosstalk_strength > 0.0:
            active.append("crosstalk")
        if self.leakage_rate_1q > 0.0 or self.leakage_rate_2q > 0.0:
            active.append("leakage")
        if self.burst_probability > 0.0:
            active.append("heating_burst")
        return tuple(active)

    @property
    def is_baseline(self) -> bool:
        """True when every correlated mechanism is switched off."""
        return not self.mechanisms

    def with_overrides(self, **kwargs) -> "NoiseScenario":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def crosstalk_probability(self, distance: int) -> float:
        """Kick probability on a spectator at *distance* ion spacings."""
        if distance < 1:
            raise SimulationError("spectator distance must be >= 1")
        if distance > self.crosstalk_range:
            return 0.0
        return min(
            1.0, self.crosstalk_strength * self.crosstalk_decay ** (distance - 1)
        )


#: The knobs each mechanism owns (used by :func:`compose_scenarios`).
_MECHANISM_KNOBS = {
    "crosstalk": ("crosstalk_strength", "crosstalk_decay",
                  "crosstalk_range"),
    "leakage": ("leakage_rate_1q", "leakage_rate_2q"),
    "heating_burst": ("burst_probability", "burst_error_multiplier"),
}


def compose_scenarios(name: str, *scenarios: "NoiseScenario",
                      description: str = "") -> NoiseScenario:
    """Combine scenarios by taking the worst (largest) value of every knob.

    Each mechanism's knobs combine by ``max`` over the scenarios that
    *enable* that mechanism — a scenario with a mechanism switched off
    does not leak its inert default knobs into the composition (e.g. a
    leakage-only scenario's default ``crosstalk_decay`` must not
    override a tuned crosstalk scenario's value, which would bias the
    attribution study's interaction term).  The composition is at least
    as noisy as each input.
    """
    if not scenarios:
        raise SimulationError("compose_scenarios needs at least one scenario")
    fields: dict[str, float] = {}
    for mechanism, knobs in _MECHANISM_KNOBS.items():
        active = [s for s in scenarios if mechanism in s.mechanisms]
        if not active:
            continue  # mechanism stays at its (off) defaults
        for knob in knobs:
            fields[knob] = max(getattr(s, knob) for s in active)
    return NoiseScenario(name=name, description=description, **fields)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, NoiseScenario] = {}

#: The all-mechanisms-off scenario every pre-existing code path runs under.
BASELINE = NoiseScenario(
    name="baseline",
    description="independent Eq. 4 gate errors only (the paper's model)",
)


def register_scenario(scenario: NoiseScenario, *,
                      replace: bool = False) -> NoiseScenario:
    """Add *scenario* to the registry (``replace=True`` to overwrite).

    Custom scenarios must be registered at import time (module level) to
    be visible inside :class:`~repro.exec.engine.ExecutionEngine` process
    -pool workers, which re-import the library.
    """
    if scenario.name == BASELINE.name and scenario != BASELINE:
        # The baseline name is exempt from content-key hashing, so
        # rebinding it to different physics would let a warm cache serve
        # results computed under the old model.
        raise SimulationError(
            "the 'baseline' scenario is fixed (all mechanisms off); "
            "register the modified config under a different name"
        )
    if scenario.name in _REGISTRY and not replace:
        raise SimulationError(
            f"scenario {scenario.name!r} is already registered; pass "
            f"replace=True to overwrite it"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> NoiseScenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimulationError(
            f"unknown noise scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, built-ins first."""
    return tuple(_REGISTRY)


def resolve_scenario(
    scenario: Union["NoiseScenario", str, None]
) -> NoiseScenario:
    """Normalise a scenario argument: ``None`` means baseline."""
    if scenario is None:
        return BASELINE
    if isinstance(scenario, NoiseScenario):
        return scenario
    return get_scenario(scenario)


register_scenario(BASELINE)
register_scenario(NoiseScenario(
    name="crosstalk",
    description="laser-head leakage kicks spectator ions under the window",
    crosstalk_strength=2e-4,
    crosstalk_decay=0.4,
    crosstalk_range=3,
))
register_scenario(NoiseScenario(
    name="leakage",
    description="gates occasionally pump a qubit out of the 0/1 subspace",
    leakage_rate_1q=5e-5,
    leakage_rate_2q=5e-4,
))
register_scenario(NoiseScenario(
    name="heating_burst",
    description="a shuttle sometimes deposits a multi-quanta burst that "
                "amplifies every later gate error until the next cooling",
    burst_probability=0.1,
    burst_error_multiplier=2.0,
))
register_scenario(compose_scenarios(
    "worst_case",
    get_scenario("crosstalk"),
    get_scenario("leakage"),
    get_scenario("heating_burst"),
    description="all three correlated mechanisms at once",
))


# ----------------------------------------------------------------------
# Execution timeline -> error sites
# ----------------------------------------------------------------------
def chain_spectators(qubits: Sequence[int], window: range,
                     max_distance: int) -> tuple[tuple[int, int], ...]:
    """The ``(ion, distance)`` spectator pairs of a gate in a chain window.

    *window* is the contiguous run of ions the gate's chain exposes.
    Distance is the ion's separation from the nearest gate operand; only
    spectators within *max_distance* are returned, sorted by ion index.
    Only ions within *max_distance* of an operand can qualify, so those
    are the only ones looked at, operand by operand from the left.
    """
    operands = sorted(set(qubits))
    spectators = []
    start = window.start
    for operand in operands:
        for ion in range(max(start, operand - max_distance),
                         min(window.stop, operand + max_distance + 1)):
            distance = min([abs(ion - qubit) for qubit in operands])
            if distance:
                spectators.append((ion, distance))
        start = max(start, operand + max_distance + 1)
    return tuple(spectators)


@dataclass
class Timeline:
    """A simulator replay's execution timeline, as columns.

    Row ``i`` of the per-gate columns is the ``i``-th executed gate: the
    gate itself, its Eq. 4 fidelity and the burst-coupling window it
    runs in (its row number doubles as the injection index for counts
    sampling).  ``spectators`` holds flat ``(gate, ion, distance)``
    triples, the ions a crosstalk kick from that gate can reach, and is
    only filled when ``crosstalk_range`` is positive.  ``shuttles``
    holds flat ``(gate position, move, window)`` triples: the 1-based
    move (TILT tape move, QCCD transport) runs before the gate of that
    row, and the burst it may deposit lives in that window.

    A replay given a timeline appends to it as it executes;
    :meth:`site_table` expands it into error sites.
    """

    crosstalk_range: int = 0
    gates: list[Gate] = field(default_factory=list)
    fidelities: list[float] = field(default_factory=list)
    windows: list[int] = field(default_factory=list)
    spectators: list[int] = field(default_factory=list)
    shuttles: list[int] = field(default_factory=list)

    @classmethod
    def for_scenario(cls, scenario: NoiseScenario) -> "Timeline":
        """An empty timeline that records what *scenario* reads."""
        crosstalk = scenario.crosstalk_strength > 0.0
        return cls(crosstalk_range=scenario.crosstalk_range if crosstalk
                   else 0)

    def add_shuttle(self, move: int, window: int) -> None:
        """Record move *move*, run before the next gate, in *window*."""
        self.shuttles.extend((len(self.gates), move, window))

    def add_spectators(self, gate: int,
                       pairs: Sequence[tuple[int, int]]) -> None:
        """Record the ``(ion, distance)`` spectators of gate row *gate*."""
        for ion, distance in pairs:
            self.spectators.extend((gate, ion, distance))

    def close_block(self, window: int, ions: range) -> None:
        """Put every gate recorded since the last call in *window*, and
        record the spectators of its two-qubit gates among *ions*."""
        start = len(self.windows)
        gates = self.gates
        self.windows.extend([window] * (len(gates) - start))
        if self.crosstalk_range:
            for row in range(start, len(gates)):
                gate = gates[row]
                if len(gate.qubits) == 2 and gate.name != "barrier":
                    self.add_spectators(row, chain_spectators(
                        gate.qubits, ions, self.crosstalk_range))

    def site_table(self, scenario: NoiseScenario) -> SiteTable:
        """The full (base + scenario) error-site table of the timeline.

        Sites come out in execution order — the order the stochastic
        sampler processes them in, and the order the burst dynamic
        program relies on: a burst only scales sites that appear *after*
        it and share its window.  Per gate the order is: the base Eq. 4
        site (``1 - fidelity``; none for a barrier or a perfect gate),
        then crosstalk kicks (by spectator ion), then leakage sites (by
        operand order); each burst sits at its shuttle, before the next
        gate's sites.  Barriers and measurements carry no crosstalk or
        leakage site.
        """
        gates = self.gates
        count = len(gates)
        fidelities = np.array(self.fidelities, dtype=float)
        windows = np.array(self.windows, dtype=np.int64)
        if fidelities.shape != (count,) or windows.shape != (count,):
            raise SimulationError(
                "a timeline needs one fidelity and one window per gate"
            )
        qubit_lists = [gate.qubits for gate in gates]
        names = np.array([gate.name for gate in gates], dtype=str)
        widths = np.fromiter(map(len, qubit_lists), dtype=np.int64,
                             count=count)
        barrier = names == "barrier"
        measure = names == "measure"
        pair = (widths == 2) & ~barrier
        leakage_rate_1q = scenario.leakage_rate_1q
        leakage_rate_2q = scenario.leakage_rate_2q
        leakage = leakage_rate_1q > 0.0 or leakage_rate_2q > 0.0
        # the checks of the per-gate expansion, first failure first
        bad_fidelity = ~((fidelities >= 0.0) & (fidelities <= 1.0))
        undecomposed = (~barrier & (widths != 1) & (widths != 2)
                        & ((fidelities < 1.0) | leakage))
        failed = np.flatnonzero(bad_fidelity | undecomposed)
        if failed.size:
            first = int(failed[0])
            if bad_fidelity[first]:
                raise SimulationError(
                    f"fidelity {self.fidelities[first]} outside [0, 1]"
                )
            raise SimulationError(
                f"gate {gates[first].name!r} must be decomposed before "
                "stochastic noise evaluation"
            )
        operands = np.full((count, 2), -1, dtype=np.int64)
        flat = np.fromiter(chain.from_iterable(qubit_lists), dtype=np.int64,
                           count=int(widths.sum()))
        starts = np.cumsum(widths) - widths
        for column, present in enumerate(((widths == 1) | (widths == 2),
                                          widths == 2)):
            operands[present, column] = flat[starts[present] + column]

        # One part per site family, each in gate order: (sort key, kind
        # code, probability, window, index, qubits).  The key orders
        # sites by gate row, then by family rank: burst 0, base 1,
        # crosstalk 2, leakage 3.
        families = 4
        parts = []

        def gate_sites(rows, rank, codes, probabilities, qubits):
            parts.append((rows * families + rank, codes, probabilities,
                          windows[rows], rows, qubits))

        if scenario.burst_probability > 0.0:
            shuttles = np.array(self.shuttles, dtype=np.int64).reshape(-1, 3)
            parts.append((
                shuttles[:, 0] * families,
                np.full(len(shuttles), KIND_CODES[HEATING_BURST]),
                np.full(len(shuttles), scenario.burst_probability),
                shuttles[:, 2], shuttles[:, 1],
                np.full((len(shuttles), 2), -1, dtype=np.int64),
            ))
        base = np.flatnonzero(~barrier & (fidelities < 1.0))
        gate_sites(base, 1,
                   np.where(measure[base], KIND_CODES[MEASURE_FLIP],
                            np.where(widths[base] == 2, KIND_CODES[PAULI_2Q],
                                     KIND_CODES[PAULI_1Q])),
                   1.0 - fidelities[base], operands[base])
        if scenario.crosstalk_strength > 0.0:
            triples = np.array(self.spectators, dtype=np.int64).reshape(-1, 3)
            triples = triples[pair[triples[:, 0]]]
            distances = sorted(set(triples[:, 2].tolist()))
            kicks = np.array([scenario.crosstalk_probability(distance)
                              for distance in distances], dtype=float)[
                np.searchsorted(distances, triples[:, 2])]
            reached = kicks > 0.0
            gate_sites(triples[reached, 0], 2,
                       np.full(int(reached.sum()), KIND_CODES[CROSSTALK]),
                       kicks[reached], _single(triples[reached, 1]))
        if leakage:
            rates = np.where(widths == 2, leakage_rate_2q, leakage_rate_1q)
            leaky = ~barrier & ~measure & (rates > 0.0)
            for column in (0, 1):
                rows = np.flatnonzero(leaky & (operands[:, column] >= 0))
                gate_sites(rows, 3, np.full(rows.size, KIND_CODES[LEAKAGE]),
                           rates[rows], _single(operands[rows, column]))

        keys, codes, probabilities, site_windows, indices, qubits = (
            np.concatenate(column) for column in zip(*parts)
        )
        order = np.argsort(keys, kind="stable")
        width = int((qubits >= 0).sum(axis=1).max(initial=0))
        return SiteTable.from_columns(
            codes[order], probabilities[order], site_windows[order],
            indices[order], qubits[order, :width],
        )


def _single(qubits: np.ndarray) -> np.ndarray:
    """One-qubit rows of a two-column qubit table (``-1`` padded)."""
    return np.stack((qubits, np.full(qubits.size, -1, dtype=np.int64)),
                    axis=1)


# ----------------------------------------------------------------------
# Exact analytic success rate under correlated noise
# ----------------------------------------------------------------------
LOG10_E = math.log10(math.e)

#: Renormalise the burst DP weights when their mass drops below this, so
#: deep circuits (success rates far below double-precision underflow)
#: stay exact in log space.
_DP_RESCALE_FLOOR = 1e-150


def _window_log10_success(codes: np.ndarray, probabilities: np.ndarray,
                          multiplier: float) -> float:
    """log10 P(no error event) for the sites of one burst-coupling window.

    Without burst sites this is the plain log-sum of survival
    probabilities.  With bursts it is an exact dynamic program over the
    number of active bursts: ``weights[k]`` tracks the joint probability
    that ``k`` bursts have triggered so far *and* every error site
    processed so far survived; burst sites branch the distribution, error
    sites multiply in their survival factor row (``1 - min(1, p *
    multiplier ** k)``, or ``1 - p`` for a readout flip and for a site
    with ``p = 0``).  Between two bursts the rows keep their length, so a
    stretch of error sites is one ``np.multiply.accumulate`` seeded with
    the weights (a per-site loop's products, in its order), restarted
    after each site whose mass falls below :data:`_DP_RESCALE_FLOOR`.
    """
    burst = KIND_CODES[HEATING_BURST]
    bursts = np.flatnonzero(codes == burst)
    if not bursts.size:
        if (probabilities >= 1.0).any():
            return float("-inf")
        log_total = 0.0
        for probability in probabilities.tolist():
            log_total += math.log1p(-probability)
        return log_total * LOG10_E

    # readout flips ignore bursts, and a never-failing site stays at
    # exactly 1 (its 0 * inf is NaN once multiplier ** k overflows)
    unscaled = ((codes == KIND_CODES[MEASURE_FLIP])
                | (probabilities == 0.0))[:, None]
    weights = np.array([1.0])
    log10_total = 0.0
    with np.errstate(over="ignore"):
        scale = multiplier ** np.arange(len(codes) + 1, dtype=float)
    # each burst (and the window's start, -1) heads the stretch after it
    heads = [-1, *bursts.tolist()]
    for head, stop in zip(heads, heads[1:] + [len(codes)]):
        if head >= 0:
            p = float(probabilities[head])
            grown = np.zeros(len(weights) + 1)
            grown[:-1] += weights * (1.0 - p)
            grown[1:] += weights * p
            weights = grown
        start = head + 1
        while True:
            p = probabilities[start:stop, None]
            scaled = np.minimum(1.0, p * np.where(unscaled[start:stop], 1.0,
                                                  scale[:weights.size]))
            # row 0 is the head's weights, row j those after site start+j-1
            rows = np.multiply.accumulate(
                np.concatenate((weights[None], 1.0 - scaled)))
            low = np.flatnonzero(rows.sum(axis=1) < _DP_RESCALE_FLOOR)
            if not low.size:
                weights = rows[-1]
                break
            total = float(rows[low[0]].sum())
            if total <= 0.0:
                return float("-inf")
            log10_total += math.log10(total)
            weights = rows[low[0]] / total
            start += int(low[0])
    return log10_total + math.log10(float(weights.sum()))


def _window_groups(windows: np.ndarray) -> list[np.ndarray]:
    """The site positions of each window, in order, windows in the order
    each first appears."""
    if not windows.size:
        return []
    order = np.argsort(windows, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(windows[order])) + 1)
    groups.sort(key=lambda positions: positions[0])
    return groups


def expected_log10_success(table: SiteTable,
                           burst_multiplier: float = 1.0) -> float:
    """Exact log10 success probability of a correlated-noise site table.

    Bursts in different windows are independent and scale disjoint site
    sets, so the success probability factorises over windows; each window
    is solved exactly by :func:`_window_log10_success`.
    """
    return sum(
        _window_log10_success(table.codes[positions],
                              table.probabilities[positions],
                              burst_multiplier)
        for positions in _window_groups(table.windows)
    )


def expected_success_rate(table: SiteTable,
                          burst_multiplier: float = 1.0) -> float:
    """Linear-space companion of :func:`expected_log10_success`."""
    log10 = expected_log10_success(table, burst_multiplier)
    if log10 == float("-inf"):
        return 0.0
    try:
        return math.pow(10.0, log10)
    except OverflowError:  # pragma: no cover - log10 <= 0 always
        return 0.0


@dataclass(frozen=True)
class ScenarioAnalytics:
    """Closed-form summary of one scenario-adjusted execution.

    ``site_counts`` and ``expected_events`` are keyed by site kind and
    feed the per-mechanism fidelity-attribution study.
    ``expected_events`` is the *first-order* per-site trigger expectation
    at unscaled probabilities — burst amplification and leak suppression
    are deliberately excluded so the columns stay linear in the scenario
    knobs (the success rate itself is exact, via the burst DP); under
    active bursts the sampled ``mechanism_counts`` will therefore sit
    above these expectations.
    """

    success_rate: float
    log10_success_rate: float
    site_counts: dict[str, int]
    expected_events: dict[str, float]

    def extras(self) -> dict[str, float]:
        """Flat float dict for :attr:`SimulationResult.extras`."""
        flattened: dict[str, float] = {}
        for kind, count in self.site_counts.items():
            flattened[f"sites_{kind}"] = float(count)
        for kind, expectation in self.expected_events.items():
            flattened[f"expected_{kind}"] = expectation
        return flattened

    def apply_to(self, result):
        """A copy of a baseline ``SimulationResult`` under this scenario.

        Replaces the success rate with the correlated-noise value and
        merges the per-mechanism telemetry into ``extras``; every other
        field (gate counts, timings, heating) is structural and carries
        over.  Duck-typed so the noise layer need not import the sim
        layer.
        """
        return dataclasses.replace(
            result,
            success_rate=self.success_rate,
            log10_success_rate=self.log10_success_rate,
            extras={**result.extras, **self.extras()},
        )


def scenario_analytics(table: SiteTable,
                       scenario: NoiseScenario) -> ScenarioAnalytics:
    """Exact analytic success rate plus per-mechanism site telemetry."""
    site_counts: dict[str, int] = {}
    expected_events: dict[str, float] = {}
    for kind in table.kinds_in_order():
        probabilities = table.probabilities[table.codes == KIND_CODES[kind]]
        site_counts[kind] = probabilities.size
        expected = 0.0
        for probability in probabilities.tolist():
            expected += probability
        expected_events[kind] = expected
    log10 = expected_log10_success(table, scenario.burst_error_multiplier)
    rate = 0.0 if log10 == float("-inf") else math.pow(10.0, log10)
    return ScenarioAnalytics(
        success_rate=rate,
        log10_success_rate=log10,
        site_counts=site_counts,
        expected_events=expected_events,
    )
