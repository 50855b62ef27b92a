"""Tests for the correlated-noise scenario subsystem."""

import dataclasses
import itertools
import math

import pytest

from repro.analysis.scenario_study import (
    ScenarioRow,
    attribution_rows,
    scenario_comparison,
    scenario_figure,
    scenarios_report,
)
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.gate import Gate
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exceptions import ReproError, SimulationError
from repro.exec import ExecutionEngine, JobSpec, spec_key
from repro.exec.engine import reset_default_engine
from repro.noise.channels import (
    CROSSTALK,
    HEATING_BURST,
    LEAKAGE,
    ErrorSite,
    SiteTable,
    pauli_gates,
)
from repro.noise.scenarios import (
    BASELINE,
    NoiseScenario,
    Timeline,
    compose_scenarios,
    expected_log10_success,
    expected_success_rate,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.stochastic import StochasticSampler
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload
from tests.conftest import agrees_within_4_sigma


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


@pytest.fixture(scope="module")
def qft16_compiled():
    device = TiltDevice(num_qubits=16, head_size=8)
    compiled = LinQCompiler(device, CompilerConfig()).compile(qft_workload(16))
    return device, compiled


# ----------------------------------------------------------------------
# Registry and scenario configs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = scenario_names()
        for expected in ("baseline", "crosstalk", "leakage",
                         "heating_burst", "worst_case"):
            assert expected in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(SimulationError):
            get_scenario("no-such-scenario")

    def test_resolve_accepts_none_string_and_object(self):
        assert resolve_scenario(None) is BASELINE
        assert resolve_scenario("crosstalk") is get_scenario("crosstalk")
        custom = NoiseScenario(name="inline", leakage_rate_2q=0.1)
        assert resolve_scenario(custom) is custom

    def test_duplicate_registration_needs_replace(self):
        scenario = NoiseScenario(name="crosstalk")
        with pytest.raises(SimulationError):
            register_scenario(scenario)

    def test_baseline_name_cannot_be_rebound(self):
        # regression: spec_key exempts the baseline *name* from hashing,
        # so rebinding it to different physics would serve stale cached
        # results; the registry refuses
        with pytest.raises(SimulationError):
            register_scenario(
                NoiseScenario(name="baseline", crosstalk_strength=1e-2),
                replace=True,
            )
        # re-registering the identical all-off config stays harmless
        register_scenario(NoiseScenario(name="baseline",
                                        description=BASELINE.description),
                          replace=True)
        assert get_scenario("baseline").is_baseline

    def test_mechanisms_and_baseline_flags(self):
        assert BASELINE.is_baseline
        assert get_scenario("crosstalk").mechanisms == ("crosstalk",)
        assert get_scenario("leakage").mechanisms == ("leakage",)
        assert get_scenario("heating_burst").mechanisms == ("heating_burst",)
        assert set(get_scenario("worst_case").mechanisms) == {
            "crosstalk", "leakage", "heating_burst"
        }

    def test_compose_takes_worst_of_each_knob(self):
        combined = compose_scenarios(
            "combo",
            NoiseScenario(name="a", crosstalk_strength=1e-3),
            NoiseScenario(name="b", burst_probability=0.2,
                          burst_error_multiplier=3.0),
        )
        assert combined.crosstalk_strength == 1e-3
        assert combined.burst_probability == 0.2
        assert combined.burst_error_multiplier == 3.0

    def test_compose_ignores_inert_default_knobs(self):
        # regression: a leakage-only scenario's default crosstalk_decay
        # must not override a tuned crosstalk scenario's value — that
        # would make the composed scenario noisier than the sum of its
        # parts and bias the attribution interaction term
        combined = compose_scenarios(
            "combo",
            NoiseScenario(name="xt", crosstalk_strength=1e-3,
                          crosstalk_decay=0.3),
            NoiseScenario(name="leak", leakage_rate_2q=1e-3),
        )
        assert combined.crosstalk_decay == 0.3
        # built-in worst_case inherits the crosstalk scenario's decay
        assert get_scenario("worst_case").crosstalk_decay == \
            get_scenario("crosstalk").crosstalk_decay

    def test_validation(self):
        with pytest.raises(SimulationError):
            NoiseScenario(name="bad", crosstalk_strength=1.5)
        with pytest.raises(SimulationError):
            NoiseScenario(name="bad", burst_error_multiplier=0.5)
        with pytest.raises(SimulationError):
            NoiseScenario(name="")
        with pytest.raises(SimulationError):
            # bursts that never scale anything are silently inert
            NoiseScenario(name="bad", burst_probability=0.2)

    def test_crosstalk_probability_decays_with_distance(self):
        scenario = NoiseScenario(name="xt", crosstalk_strength=1e-2,
                                 crosstalk_decay=0.5, crosstalk_range=2)
        assert scenario.crosstalk_probability(1) == pytest.approx(1e-2)
        assert scenario.crosstalk_probability(2) == pytest.approx(5e-3)
        assert scenario.crosstalk_probability(3) == 0.0


# ----------------------------------------------------------------------
# Site expansion
# ----------------------------------------------------------------------
def _timeline(*steps, crosstalk_range=0, ions=range(0)):
    """A hand-built timeline in window 0: a ``(gate, fidelity)`` step is
    one executed gate, with its spectators among *ions*; an ``int`` step
    is the shuttle of that move number."""
    timeline = Timeline(crosstalk_range=crosstalk_range)
    for step in steps:
        if isinstance(step, int):
            timeline.add_shuttle(step, 0)
            continue
        gate, fidelity = step
        timeline.gates.append(gate)
        timeline.fidelities.append(fidelity)
        timeline.close_block(0, ions)
    return timeline


class TestSiteExpansion:
    def test_crosstalk_sites_cover_spectators_in_window(self):
        scenario = NoiseScenario(name="xt", crosstalk_strength=1e-2,
                                 crosstalk_decay=0.5, crosstalk_range=3)
        timeline = _timeline((Gate("xx", (4, 5), (0.5,)), 0.99),
                             crosstalk_range=3, ions=range(2, 10))
        sites = timeline.site_table(scenario).sites()
        crosstalk = [s for s in sites if s.kind == CROSSTALK]
        # spectators 2,3 on the left and 6,7,8 on the right of (4,5)
        assert [s.qubits[0] for s in crosstalk] == [2, 3, 6, 7, 8]
        by_qubit = {s.qubits[0]: s.probability for s in crosstalk}
        assert by_qubit[3] == pytest.approx(1e-2)       # distance 1
        assert by_qubit[2] == pytest.approx(5e-3)       # distance 2
        assert by_qubit[8] == pytest.approx(2.5e-3)     # distance 3

    def test_leakage_sites_per_operand(self):
        scenario = NoiseScenario(name="leak", leakage_rate_2q=1e-3,
                                 leakage_rate_1q=1e-4)
        timeline = _timeline(
            (Gate("xx", (0, 1), (0.5,)), 1.0),
            (Gate("rx", (2,), (0.3,)), 1.0),
            (Gate("measure", (0,)), 1.0),
        )
        sites = timeline.site_table(scenario).sites()
        leaks = [s for s in sites if s.kind == LEAKAGE]
        assert [(s.index, s.qubits[0], s.probability) for s in leaks] == [
            (0, 0, 1e-3), (0, 1, 1e-3), (1, 2, 1e-4),
        ]

    def test_burst_sites_only_for_shuttles(self):
        scenario = NoiseScenario(name="burst", burst_probability=0.25,
                                 burst_error_multiplier=2.0)
        timeline = _timeline(
            (Gate("xx", (0, 1), (0.5,)), 0.9),
            1,
            (Gate("xx", (0, 1), (0.5,)), 0.9),
        )
        sites = timeline.site_table(scenario).sites()
        assert [s.kind for s in sites] == ["pauli2", HEATING_BURST, "pauli2"]
        assert sites[1].probability == 0.25

    def test_baseline_adds_no_scenario_sites(self):
        timeline = _timeline((Gate("xx", (0, 1), (0.5,)), 0.9), 1,
                             crosstalk_range=3, ions=range(3))
        assert timeline.spectators == [0, 2, 1]
        sites = timeline.site_table(BASELINE).sites()
        assert [s.kind for s in sites] == ["pauli2"]

    def test_sampled_jobs_build_no_error_site_records(self, monkeypatch):
        """Timelines expand straight into table columns: building and
        sampling crosstalk, leakage and heating-burst QFT-8 jobs on all
        three simulators constructs no ErrorSite."""
        constructed = []
        check = ErrorSite.__post_init__

        def counted(site):
            constructed.append(site.kind)
            check(site)

        monkeypatch.setattr(ErrorSite, "__post_init__", counted)
        circuit = qft_workload(8)
        tilt = TiltDevice(num_qubits=8, head_size=4)
        qccd = QccdDevice(num_qubits=8, trap_capacity=4)
        jobs = [
            (TiltSimulator(tilt),
             LinQCompiler(tilt, CompilerConfig()).compile(circuit), {}),
            (QccdSimulator(qccd), QccdCompiler(qccd).compile(circuit),
             {"circuit_name": circuit.name}),
            (IdealSimulator(IdealTrappedIonDevice(8)), circuit, {}),
        ]
        for simulator, program, inputs in jobs:
            for scenario in ("crosstalk", "leakage", "heating_burst"):
                shot = simulator.run_stochastic(program, shots=64, seed=5,
                                                scenario=scenario, **inputs)
                assert shot.num_error_sites > 0
        assert constructed == []

    def test_pauli_gates_for_scenario_kinds(self):
        crosstalk = ErrorSite(index=0, kind=CROSSTALK, qubits=(3,),
                              probability=0.1)
        assert [(g.name, g.qubits) for g in pauli_gates(crosstalk, "XTY")] \
            == [("y", (3,))]
        leak = ErrorSite(index=0, kind=LEAKAGE, qubits=(3,), probability=0.1)
        assert pauli_gates(leak, "LEAK") == []
        burst = ErrorSite(index=1, kind=HEATING_BURST, qubits=(),
                          probability=0.1)
        assert pauli_gates(burst, "BURST") == []


# ----------------------------------------------------------------------
# Exact analytics (the burst dynamic program)
# ----------------------------------------------------------------------
def _brute_force_success(sites, multiplier):
    """Enumerate burst configurations; exact by construction."""
    burst_positions = [i for i, s in enumerate(sites)
                       if s.kind == HEATING_BURST]
    total = 0.0
    for triggered in itertools.product(
        (False, True), repeat=len(burst_positions)
    ):
        weight = 1.0
        for on, position in zip(triggered, burst_positions):
            p = sites[position].probability
            weight *= p if on else 1.0 - p
        survival = 1.0
        for i, site in enumerate(sites):
            if site.kind == HEATING_BURST:
                continue
            active = sum(
                1 for on, position in zip(triggered, burst_positions)
                if on and position < i
                and sites[position].window == site.window
            )
            p = site.probability
            if site.kind != "measure_flip" and active:
                p = min(1.0, p * multiplier ** active)
            survival *= 1.0 - p
        total += weight * survival
    return total


def _success(sites, multiplier=1.0):
    return expected_success_rate(SiteTable.from_sites(sites), multiplier)


def _log10_success(sites, multiplier=1.0):
    return expected_log10_success(SiteTable.from_sites(sites), multiplier)


class TestAnalytics:
    def test_independent_sites_reduce_to_product(self):
        sites = [
            ErrorSite(index=0, kind="pauli2", qubits=(0, 1),
                      probability=0.1),
            ErrorSite(index=1, kind=CROSSTALK, qubits=(2,),
                      probability=0.05),
            ErrorSite(index=2, kind=LEAKAGE, qubits=(0,), probability=0.02),
        ]
        assert _success(sites) == pytest.approx(
            0.9 * 0.95 * 0.98
        )

    def test_burst_dp_matches_brute_force(self):
        sites = [
            ErrorSite(index=0, kind="pauli2", qubits=(0, 1),
                      probability=0.05, window=0),
            ErrorSite(index=1, kind=HEATING_BURST, qubits=(),
                      probability=0.3, window=0),
            ErrorSite(index=1, kind="pauli2", qubits=(0, 1),
                      probability=0.1, window=0),
            ErrorSite(index=2, kind=HEATING_BURST, qubits=(),
                      probability=0.5, window=0),
            ErrorSite(index=2, kind="pauli1", qubits=(0,),
                      probability=0.08, window=0),
            ErrorSite(index=3, kind="measure_flip", qubits=(1,),
                      probability=0.04, window=0),
        ]
        for multiplier in (1.0, 2.0, 5.0):
            assert _success(sites, multiplier) == pytest.approx(
                _brute_force_success(sites, multiplier), rel=1e-12
            )

    def test_bursts_in_other_windows_do_not_couple(self):
        sites = [
            ErrorSite(index=0, kind=HEATING_BURST, qubits=(),
                      probability=1.0, window=0),
            ErrorSite(index=1, kind="pauli2", qubits=(0, 1),
                      probability=0.1, window=1),
        ]
        # the burst is certain but lives in another window: no scaling
        assert _success(sites, 10.0) == pytest.approx(0.9)
        coupled = [dataclasses.replace(sites[0], window=1), sites[1]]
        assert _success(coupled, 10.0) == pytest.approx(0.0)

    def test_certain_error_gives_zero_success(self):
        sites = [ErrorSite(index=0, kind="pauli1", qubits=(0,),
                           probability=1.0)]
        assert _success(sites) == 0.0
        assert _log10_success(sites) == float("-inf")

    def test_deep_circuit_stays_finite_in_log_space(self):
        sites = [
            ErrorSite(index=i, kind="pauli2", qubits=(0, 1), probability=0.5)
            for i in range(2000)
        ] + [ErrorSite(index=2000, kind=HEATING_BURST, qubits=(),
                       probability=0.5)]
        log10 = _log10_success(sites, 2.0)
        assert log10 == pytest.approx(2000 * math.log10(0.5), rel=1e-9)


# ----------------------------------------------------------------------
# Sampler semantics under correlated noise
# ----------------------------------------------------------------------
class TestCorrelatedSampling:
    def test_certain_burst_scales_downstream_error(self):
        base_p = 0.1
        sites = [
            ErrorSite(index=1, kind=HEATING_BURST, qubits=(),
                      probability=1.0, window=0),
            ErrorSite(index=1, kind="pauli1", qubits=(0,),
                      probability=base_p, window=0),
        ]
        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    table=SiteTable.from_sites(sites),
                                    burst_multiplier=4.0)
        result = sampler.run(4000, seed=7)
        # every shot has an active burst, so the effective rate is 0.4
        assert result.success_rate == pytest.approx(0.6, abs=0.03)
        assert result.expected_success_rate == pytest.approx(0.6)
        assert result.mechanism_counts[HEATING_BURST] == 4000

    def test_extreme_burst_count_saturates_instead_of_overflowing(self):
        # regression: with cooling disabled the whole program is one
        # window, so thousands of active bursts can overflow the float
        # pow — the effective probability must saturate at 1.0, matching
        # the analytic DP's capped product
        sites = [
            ErrorSite(index=i, kind=HEATING_BURST, qubits=(),
                      probability=1.0, window=0)
            for i in range(1200)
        ] + [ErrorSite(index=1200, kind="pauli1", qubits=(0,),
                       probability=1e-6, window=0)]
        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    table=SiteTable.from_sites(sites),
                                    burst_multiplier=2.0)
        result = sampler.run(3, seed=0)
        assert result.successes == 0  # saturated probability always fires
        assert result.expected_success_rate == pytest.approx(0.0)
        # 1e-6 * 2 ** 20 >= 1 makes the Pauli site certain from 20
        # active bursts on, so the window keeps 21 hazard rows, not 1,201
        (_, _, hazards, _), = sampler._scan_groups()[1]
        assert hazards.shape[0] == 21

    def test_overflowing_burst_scale_saturates_an_unsaturated_site(self):
        # 5e-324 * 10.0 ** 308 is still far below 1 and 10.0 ** 309
        # overflows: the site must turn certain at 309 active bursts
        sites = [
            ErrorSite(index=i, kind=HEATING_BURST, qubits=(),
                      probability=1.0, window=0)
            for i in range(309)
        ] + [ErrorSite(index=309, kind="pauli1", qubits=(0,),
                       probability=5e-324, window=0)]
        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    table=SiteTable.from_sites(sites),
                                    burst_multiplier=10.0)
        result = sampler.run(3, seed=0)
        assert result.successes == 0
        assert result.expected_success_rate == 0.0

    def test_leaked_qubit_suppresses_later_sites(self):
        sites = [
            ErrorSite(index=0, kind=LEAKAGE, qubits=(0,), probability=1.0),
            ErrorSite(index=1, kind="pauli1", qubits=(0,), probability=1.0),
            ErrorSite(index=2, kind="measure_flip", qubits=(0,),
                      probability=1.0),
            ErrorSite(index=3, kind="pauli1", qubits=(1,), probability=1.0),
        ]
        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    table=SiteTable.from_sites(sites))
        result = sampler.run(50, seed=3)
        assert result.successes == 0
        # the leak subsumes qubit 0's later sites; qubit 1 still errors
        assert result.errors_per_shot == tuple([2] * 50)
        assert result.mechanism_counts[LEAKAGE] == 50
        assert result.mechanism_counts["pauli1"] == 50
        assert "measure_flip" not in result.mechanism_counts
        record = result.records[0]
        assert record.errors[0] == (0, "LEAK")
        assert record.errors[1][0] == 3  # the surviving pauli on qubit 1

    def test_mechanism_shot_telemetry(self, qft16_compiled):
        device, compiled = qft16_compiled
        shot = TiltSimulator(device).run_stochastic(
            compiled, shots=800, seed=11, scenario="worst_case"
        )
        assert shot.mechanism_counts
        assert shot.mechanism_shots
        for kind, shots_hit in shot.mechanism_shots.items():
            assert shots_hit <= 800
            assert shot.mechanism_counts[kind] >= shots_hit

    def test_crosstalk_records_are_attributable(self, qft16_compiled):
        device, compiled = qft16_compiled
        scenario = NoiseScenario(name="hot-xt", crosstalk_strength=0.05,
                                 crosstalk_decay=0.5)
        shot = TiltSimulator(device).run_stochastic(
            compiled, shots=50, seed=1, scenario=scenario
        )
        labels = {label for record in shot.records
                  for _, label in record.errors}
        assert any(label.startswith("XT") for label in labels)


# ----------------------------------------------------------------------
# Sampled-vs-analytic agreement per scenario and per simulator
# ----------------------------------------------------------------------
class TestScenarioConvergence:
    @pytest.mark.parametrize("scenario", ["crosstalk", "leakage",
                                          "heating_burst", "worst_case"])
    def test_tilt_sampled_agrees_with_exact_analytics(self, scenario,
                                                      qft16_compiled):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device)
        analytic = simulator.run(compiled, scenario=scenario)
        shot = simulator.run_stochastic(compiled, shots=25_000, seed=2021,
                                        scenario=scenario)
        assert shot.expected_success_rate == pytest.approx(
            analytic.success_rate, rel=1e-9
        )
        assert agrees_within_4_sigma(shot, analytic.success_rate)

    def test_qccd_sampled_agrees(self):
        device = QccdDevice(num_qubits=16, trap_capacity=5)
        program = QccdCompiler(device).compile(bv_workload(16))
        simulator = QccdSimulator(device)
        analytic = simulator.run(program, circuit_name="bv",
                                 scenario="worst_case")
        shot = simulator.run_stochastic(program, shots=21_000, seed=2021,
                                        circuit_name="bv",
                                        scenario="worst_case")
        assert agrees_within_4_sigma(shot, analytic.success_rate)

    def test_ideal_sampled_agrees_and_bursts_are_inert(self, ideal16):
        simulator = IdealSimulator(ideal16)
        circuit = bv_workload(16)
        burst_only = simulator.run(circuit, scenario="heating_burst")
        baseline = simulator.run(circuit)
        # no shuttles -> the burst scenario cannot change anything
        assert burst_only.success_rate == pytest.approx(baseline.success_rate)
        analytic = simulator.run(circuit, scenario="worst_case")
        shot = simulator.run_stochastic(circuit, shots=21_000, seed=2021,
                                        scenario="worst_case")
        assert agrees_within_4_sigma(shot, analytic.success_rate)

    def test_scenarios_strictly_reduce_success(self, qft16_compiled):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device)
        baseline = simulator.run(compiled)
        for name in ("crosstalk", "leakage", "heating_burst", "worst_case"):
            adjusted = simulator.run(compiled, scenario=name)
            assert adjusted.success_rate < baseline.success_rate


# ----------------------------------------------------------------------
# Engine integration and cache-key stability
# ----------------------------------------------------------------------
def _spec(**overrides):
    fields = dict(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(mapper="trivial"),
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestEngineIntegration:
    def test_baseline_scenario_key_equals_pre_scenario_key(self):
        # pinned acceptance criterion: JobSpec(scenario="baseline") and a
        # spec that never mentions scenarios hash identically, so every
        # pre-existing cache entry stays valid
        assert spec_key(_spec()) == spec_key(_spec(scenario="baseline"))
        sampled = _spec(shots=100, seed=3)
        assert spec_key(sampled) == spec_key(
            dataclasses.replace(sampled, scenario="baseline")
        )

    def test_non_baseline_scenarios_get_distinct_keys(self):
        keys = {spec_key(_spec(scenario=name))
                for name in ("baseline", "crosstalk", "leakage",
                             "heating_burst", "worst_case")}
        assert len(keys) == 5

    def test_scenario_parameters_are_hashed_not_just_the_name(self):
        # regression: re-registering a name with different knobs must
        # change the content key, or a persistent cache would serve
        # results computed under the old physics
        register_scenario(NoiseScenario(name="tuned-xt",
                                        crosstalk_strength=1e-3),
                          replace=True)
        before = spec_key(_spec(scenario="tuned-xt"))
        register_scenario(NoiseScenario(name="tuned-xt",
                                        crosstalk_strength=1e-2),
                          replace=True)
        after = spec_key(_spec(scenario="tuned-xt"))
        assert before != after

    def test_unknown_scenario_rejected_at_spec_creation(self):
        with pytest.raises((ReproError, SimulationError)):
            _spec(scenario="not-a-scenario")

    def test_scenario_on_compile_only_spec_rejected(self):
        # scenarios only affect simulation; silently ignoring one on a
        # compile-only spec while hashing it would split the cache
        with pytest.raises(ReproError):
            _spec(scenario="worst_case", simulate=False)
        _spec(scenario="baseline", simulate=False)  # fine

    def test_engine_runs_scenario_jobs(self):
        engine = ExecutionEngine(workers=1)
        baseline = engine.run_one(_spec())
        adjusted = engine.run_one(_spec(scenario="worst_case"))
        assert adjusted.simulation.success_rate < \
            baseline.simulation.success_rate
        assert adjusted.simulation.extras["sites_leakage"] > 0

    def test_scenario_shot_results_round_trip_disk_cache(self, tmp_path):
        root = tmp_path / "run"
        spec = _spec(scenario="worst_case", shots=300, seed=5)
        first = ExecutionEngine(workers=1, store=root).run_one(spec)
        second = ExecutionEngine(workers=1, store=root).run_one(spec)
        assert second.cache_hit
        assert second.shot == first.shot
        assert second.shot.mechanism_counts == first.shot.mechanism_counts


# ----------------------------------------------------------------------
# The comparison study
# ----------------------------------------------------------------------
class TestScenarioStudy:
    def test_rows_cover_scenarios_and_workloads(self):
        rows = scenario_comparison(
            "small", workloads=("BV", "QFT"),
            engine=ExecutionEngine(workers=1),
        )
        pairs = {(row.workload, row.scenario) for row in rows}
        assert len(pairs) == 10  # 2 workloads x 5 scenarios
        for row in rows:
            if row.scenario == "baseline":
                assert row.loss_decades == 0.0
            else:
                assert row.loss_decades > 0.0

    def test_attribution_sums_and_interaction(self):
        rows = scenario_comparison(
            "small", workloads=("QFT",), engine=ExecutionEngine(workers=1),
        )
        attribution = attribution_rows(rows)
        singles = [r for r in attribution if "combined" not in r.mechanism]
        combined = [r for r in attribution if "combined" in r.mechanism]
        assert {r.mechanism for r in singles} == {
            "crosstalk", "leakage", "heating_burst"
        }
        assert sum(r.share for r in singles) == pytest.approx(1.0)
        assert len(combined) == 1
        # correlated mechanisms compound: together they cost more than
        # the sum of their solo losses
        assert combined[0].interaction_decades > 0.0

    def test_sampled_columns_when_shots_requested(self):
        rows = scenario_comparison(
            "small", workloads=("BV",), shots=200,
            engine=ExecutionEngine(workers=1),
        )
        assert all(row.sampled_success_rate is not None for row in rows)
        worst = next(r for r in rows if r.scenario == "worst_case")
        assert worst.sampled_mechanism_shots

    def test_interaction_subtracts_only_the_combined_mechanisms(self):
        # regression: a two-mechanism combined scenario must not have an
        # unrelated third mechanism's solo loss subtracted from its
        # interaction term (which would push it spuriously negative)
        register_scenario(compose_scenarios(
            "xt-leak", get_scenario("crosstalk"), get_scenario("leakage"),
        ), replace=True)

        def _row(scenario, loss):
            return ScenarioRow(
                workload="BV", scenario=scenario, success_rate=1.0,
                log10_success_rate=-loss, loss_decades=loss,
                num_scenario_sites=0, expected_crosstalk=0.0,
                expected_leakage=0.0, expected_bursts=0.0,
            )

        rows = [_row("crosstalk", 0.3), _row("leakage", 0.4),
                _row("heating_burst", 0.6), _row("xt-leak", 0.75)]
        combined = [r for r in attribution_rows(rows)
                    if "combined" in r.mechanism]
        assert len(combined) == 1
        assert combined[0].interaction_decades == pytest.approx(0.05)

    def test_combined_only_attribution_has_no_fake_interaction(self):
        rows = scenario_comparison(
            "small", workloads=("BV",), scenarios=("worst_case",),
            engine=ExecutionEngine(workers=1),
        )
        attribution = attribution_rows(rows)
        assert len(attribution) == 1
        assert "no solo reference" in attribution[0].mechanism
        assert attribution[0].interaction_decades == 0.0
        assert attribution[0].loss_decades > 0.0

    def test_attribution_keeps_duplicate_mechanism_scenarios_apart(self):
        # regression: two single-mechanism scenarios probing the same
        # mechanism at different strengths must both be attributed, not
        # silently overwrite each other
        register_scenario(
            get_scenario("crosstalk").with_overrides(name="crosstalk-2x",
                                                     crosstalk_strength=4e-4),
            replace=True,
        )
        rows = scenario_comparison(
            "small", workloads=("BV",),
            scenarios=("crosstalk", "crosstalk-2x"),
            engine=ExecutionEngine(workers=1),
        )
        attribution = attribution_rows(rows)
        assert len(attribution) == 2
        labels = {r.mechanism for r in attribution}
        assert labels == {"crosstalk (crosstalk)",
                          "crosstalk (crosstalk-2x)"}
        assert sum(r.share for r in attribution) == pytest.approx(1.0)

    def test_report_works_without_baseline_in_scenario_list(self):
        # regression: the internal baseline reference makes loss_decades
        # real even when the caller omits "baseline", and attribution
        # must not crash on its absence
        report = scenarios_report(
            "small", workloads=("BV",),
            scenarios=("crosstalk", "leakage"),
            engine=ExecutionEngine(workers=1),
        )
        assert "crosstalk" in report and "leakage" in report
        rows = scenario_comparison(
            "small", workloads=("BV",),
            scenarios=("crosstalk", "leakage"),
            engine=ExecutionEngine(workers=1),
        )
        assert all(row.loss_decades > 0 for row in rows)
        assert {r.mechanism for r in attribution_rows(rows)} == {
            "crosstalk", "leakage"
        }

    def test_report_contains_table_figure_and_all_scenarios(self):
        report = scenarios_report(
            "small", workloads=("BV", "QFT", "SQRT"),
            engine=ExecutionEngine(workers=1),
        )
        for name in ("baseline", "crosstalk", "leakage", "heating_burst",
                     "worst_case"):
            assert name in report
        assert "fidelity attribution" in report
        assert "Figure S1" in report
        assert "SQRT" in report

    def test_figure_handles_empty_rows(self):
        assert scenario_figure([]) == "(no rows)"
