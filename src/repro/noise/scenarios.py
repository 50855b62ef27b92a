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
configuration of the three mechanisms, a process-wide registry maps names
(``"baseline"``, ``"crosstalk"``, ``"leakage"``, ``"heating_burst"``,
``"worst_case"``) to configs, and :func:`build_scenario_sites` expands a
simulator-produced execution timeline into the
:class:`~repro.noise.channels.ErrorSite` records the stochastic sampler
consumes: each gate's Eq. 4 site plus the scenario's extra ones.  The
analytic counterpart, :func:`scenario_analytics`, computes the *exact*
closed-form success rate of the correlated model — bursts are handled
by a per-window dynamic program over the number of active bursts, so
the analytic and sampled paths agree by construction, not by
approximation.

Adding a new mechanism means adding a new ``ErrorSite`` kind (see the
README section "Adding a new ErrorSite kind") plus its expansion rule
here — never a new simulator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.channels import (
    CROSSTALK,
    HEATING_BURST,
    LEAKAGE,
    MEASURE_FLIP,
    ErrorSite,
    error_site_for_gate,
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
@dataclass(frozen=True)
class GatePoint:
    """One executed gate on a simulator's timeline.

    ``index`` is the gate's position in execution order (it doubles as
    the injection index for counts sampling), ``spectators`` lists the
    ``(ion, distance)`` pairs a crosstalk kick can reach, and ``window``
    is the burst-coupling window the gate runs in.
    """

    index: int
    gate: Gate
    fidelity: float
    spectators: tuple[tuple[int, int], ...] = ()
    window: int = 0


@dataclass(frozen=True)
class ShuttlePoint:
    """One shuttle (tape move / QCCD transport) on the timeline.

    ``move`` is the 1-based move/transport number (recorded as the burst
    site's ``index``); ``window`` is the burst-coupling window the
    deposited burst lives in.
    """

    move: int
    window: int = 0


TimelinePoint = Union[GatePoint, ShuttlePoint]


def chain_spectators(qubits: tuple[int, ...], window_ions: Iterable[int],
                     max_distance: int) -> tuple[tuple[int, int], ...]:
    """The ``(ion, distance)`` spectator pairs of a gate in a chain window.

    Distance is the ion's separation from the nearest gate operand; only
    spectators within *max_distance* are returned, sorted by ion index.
    """
    operands = set(qubits)
    spectators = []
    for ion in window_ions:
        if ion in operands:
            continue
        distance = min(abs(ion - q) for q in operands)
        if 1 <= distance <= max_distance:
            spectators.append((ion, distance))
    return tuple(sorted(spectators))


def _is_entangling(gate: Gate) -> bool:
    return gate.num_qubits == 2 and gate.name not in ("barrier",)


def build_scenario_sites(points: Sequence[TimelinePoint],
                         scenario: NoiseScenario) -> list[ErrorSite]:
    """Expand a timeline into the full (base + scenario) error-site list.

    Sites come out in execution order — the order the stochastic sampler
    processes them in, and the order the burst dynamic program relies on:
    a burst only scales sites that appear *after* it in the list and
    share its window.  Per gate the order is: the base Eq. 4 site, then
    crosstalk kicks (by spectator index), then leakage sites (by operand
    order).
    """
    burst_probability = scenario.burst_probability
    crosstalk = scenario.crosstalk_strength > 0.0
    leakage_rate_1q = scenario.leakage_rate_1q
    leakage_rate_2q = scenario.leakage_rate_2q
    # whether any gate can carry a site beyond its base one
    gate_mechanisms = (crosstalk or leakage_rate_1q > 0.0
                       or leakage_rate_2q > 0.0)
    sites: list[ErrorSite] = []
    for point in points:
        if isinstance(point, ShuttlePoint):
            if burst_probability > 0.0:
                sites.append(ErrorSite(
                    index=point.move, kind=HEATING_BURST, qubits=(),
                    probability=burst_probability, window=point.window,
                ))
            continue
        gate = point.gate
        base = error_site_for_gate(point.index, gate, point.fidelity,
                                   window=point.window)
        if base is not None:
            sites.append(base)
        if not gate_mechanisms or gate.name in ("barrier", "measure"):
            continue
        if crosstalk and _is_entangling(gate):
            for ion, distance in point.spectators:
                probability = scenario.crosstalk_probability(distance)
                if probability > 0.0:
                    sites.append(ErrorSite(
                        index=point.index, kind=CROSSTALK, qubits=(ion,),
                        probability=probability, window=point.window,
                    ))
        rate = leakage_rate_2q if gate.num_qubits == 2 else leakage_rate_1q
        if rate > 0.0:
            for qubit in gate.qubits:
                sites.append(ErrorSite(
                    index=point.index, kind=LEAKAGE, qubits=(qubit,),
                    probability=rate, window=point.window,
                ))
    return sites


# ----------------------------------------------------------------------
# Exact analytic success rate under correlated noise
# ----------------------------------------------------------------------
LOG10_E = math.log10(math.e)

#: Renormalise the burst DP weights when their mass drops below this, so
#: deep circuits (success rates far below double-precision underflow)
#: stay exact in log space.
_DP_RESCALE_FLOOR = 1e-150


def _window_log10_success(sites: Sequence[ErrorSite],
                          multiplier: float) -> float:
    """log10 P(no error event) for the sites of one burst-coupling window.

    Without burst sites this is the plain log-sum of survival
    probabilities.  With bursts it is an exact dynamic program over the
    number of active bursts: ``weights[k]`` tracks the joint probability
    that ``k`` bursts have triggered so far *and* every error site
    processed so far survived; burst sites branch the distribution, error
    sites multiply in their (burst-scaled) survival factor.
    """
    if not any(site.kind == HEATING_BURST for site in sites):
        log_total = 0.0
        for site in sites:
            if site.probability >= 1.0:
                return float("-inf")
            log_total += math.log1p(-site.probability)
        return log_total * LOG10_E

    weights = np.array([1.0])
    log10_total = 0.0
    with np.errstate(over="ignore"):
        scale = multiplier ** np.arange(len(sites) + 1, dtype=float)
    for site in sites:
        if site.kind == HEATING_BURST:
            p = site.probability
            grown = np.zeros(len(weights) + 1)
            grown[:-1] += weights * (1.0 - p)
            grown[1:] += weights * p
            weights = grown
        elif site.kind == MEASURE_FLIP:
            weights = weights * (1.0 - site.probability)
        else:
            scaled = np.minimum(1.0,
                                site.probability * scale[:len(weights)])
            weights = weights * (1.0 - scaled)
        total = float(weights.sum())
        if total <= 0.0:
            return float("-inf")
        if total < _DP_RESCALE_FLOOR:
            log10_total += math.log10(total)
            weights = weights / total
    return log10_total + math.log10(float(weights.sum()))


def expected_log10_success(sites: Sequence[ErrorSite],
                           burst_multiplier: float = 1.0) -> float:
    """Exact log10 success probability of a correlated-noise site list.

    Bursts in different windows are independent and scale disjoint site
    sets, so the success probability factorises over windows; each window
    is solved exactly by :func:`_window_log10_success`.
    """
    windows: dict[int, list[ErrorSite]] = {}
    for site in sites:
        windows.setdefault(site.window, []).append(site)
    return sum(
        _window_log10_success(window_sites, burst_multiplier)
        for window_sites in windows.values()
    )


def expected_success_rate(sites: Sequence[ErrorSite],
                          burst_multiplier: float = 1.0) -> float:
    """Linear-space companion of :func:`expected_log10_success`."""
    log10 = expected_log10_success(sites, burst_multiplier)
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


def scenario_analytics(sites: Sequence[ErrorSite],
                       scenario: NoiseScenario) -> ScenarioAnalytics:
    """Exact analytic success rate plus per-mechanism site telemetry."""
    site_counts: dict[str, int] = {}
    expected_events: dict[str, float] = {}
    for site in sites:
        site_counts[site.kind] = site_counts.get(site.kind, 0) + 1
        expected_events[site.kind] = (
            expected_events.get(site.kind, 0.0) + site.probability
        )
    log10 = expected_log10_success(sites, scenario.burst_error_multiplier)
    rate = 0.0 if log10 == float("-inf") else math.pow(10.0, log10)
    return ScenarioAnalytics(
        success_rate=rate,
        log10_success_rate=log10,
        site_counts=site_counts,
        expected_events=expected_events,
    )
