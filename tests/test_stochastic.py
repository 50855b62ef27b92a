"""Tests for the stochastic (shot-based Monte-Carlo) noise subsystem."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.analysis.convergence import convergence_study, sampled_figure8
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exceptions import ReproError, SimulationError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    run_sampled_job,
    shard_sampling_spec,
    spec_key,
)
from repro.exec.engine import reset_default_engine
from repro.noise.channels import (
    BURST_SCALED_KINDS,
    CROSSTALK,
    HEATING_BURST,
    LABEL_TABLE,
    LEAKAGE,
    MEASURE_FLIP,
    PAULI_1Q,
    PAULI_2Q,
    PAULI_LABELS_2Q,
    ErrorSite,
    SiteTable,
    pauli_gates,
)
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.statevector import StatevectorSimulator
from repro.sim.stochastic import (
    CERTAIN_HAZARD,
    DEFAULT_MAX_RECORDS,
    LABEL_STREAM,
    LEAK_STREAM,
    OUTCOME_STREAM,
    TRIGGER_STREAM,
    ShotRecord,
    ShotRecords,
    ShotResult,
    StochasticSampler,
    merge_shot_results,
    mix,
    shot_result_from_json,
    shot_result_to_json,
    wilson_interval,
)
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload
from tests.conftest import agrees_within_4_sigma
from tests.test_reference_oracles import error_site_for_gate


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


@pytest.fixture(scope="module")
def bv16_compiled():
    device = TiltDevice(num_qubits=16, head_size=8)
    compiled = LinQCompiler(
        device, CompilerConfig(mapper="trivial")
    ).compile(bv_workload(16))
    return device, compiled


@pytest.fixture(scope="module")
def qft16_compiled():
    device = TiltDevice(num_qubits=16, head_size=8)
    compiled = LinQCompiler(device, CompilerConfig()).compile(qft_workload(16))
    return device, compiled


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(73, 100)
        assert low < 0.73 < high

    def test_bounds_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_zero_successes_interval_is_informative(self):
        low, high = wilson_interval(0, 10000)
        assert low == 0.0
        assert 0.0 < high < 1e-3  # ~3.8e-4: tiny rates stay inside

    def test_tightens_with_shots(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(50, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(5, 4)


# ----------------------------------------------------------------------
# Channel vocabulary
# ----------------------------------------------------------------------
class TestChannels:
    def test_barrier_and_perfect_gates_have_no_site(self):
        from repro.circuits.gate import Gate

        assert error_site_for_gate(0, Gate("barrier", (0, 1)), 0.5) is None
        assert error_site_for_gate(0, Gate("h", (0,)), 1.0) is None

    def test_kinds(self):
        from repro.circuits.gate import Gate

        assert error_site_for_gate(0, Gate("h", (0,)), 0.9).kind == "pauli1"
        assert error_site_for_gate(
            0, Gate("xx", (0, 1), (0.5,)), 0.9
        ).kind == "pauli2"
        assert error_site_for_gate(
            0, Gate("measure", (3,)), 0.9
        ).kind == "measure_flip"

    def test_two_qubit_labels_cover_15_paulis(self):
        assert len(PAULI_LABELS_2Q) == 15
        assert "II" not in PAULI_LABELS_2Q

    def test_leakage_site_leaks_one_qubit(self):
        with pytest.raises(SimulationError):
            ErrorSite(index=0, kind=LEAKAGE, qubits=(0, 1), probability=0.1)

    def test_pauli_gates_skip_identity_factors(self):
        site = ErrorSite(index=0, kind="pauli2", qubits=(4, 7),
                         probability=0.1)
        gates = pauli_gates(site, "IX")
        assert [(g.name, g.qubits) for g in gates] == [("x", (7,))]


# ----------------------------------------------------------------------
# ShotResult container
# ----------------------------------------------------------------------
def _shot_result(shots=4, successes=3, offset=0, **overrides):
    fields = dict(
        architecture="TILT head 8",
        circuit_name="bv",
        shots=shots,
        seed=1,
        shot_offset=offset,
        successes=successes,
        errors_per_shot=tuple(
            0 if index < successes else 1 for index in range(shots)
        ),
        records=(ShotRecord(shot=offset + shots - 1, errors=((0, "X"),)),),
        num_error_sites=5,
        expected_success_rate=0.75,
    )
    fields.update(overrides)
    return ShotResult(**fields)


class TestShotResult:
    def test_success_rate_and_interval(self):
        result = _shot_result(shots=100, successes=80)
        assert result.success_rate == 0.8
        low, high = result.confidence_interval
        assert low < 0.8 < high

    def test_validation(self):
        with pytest.raises(SimulationError):
            _shot_result(shots=0, successes=0)
        with pytest.raises(SimulationError):
            _shot_result(shots=4, successes=5)
        with pytest.raises(SimulationError):
            _shot_result(errors_per_shot=(0,))

    def test_to_simulation_result_carries_interval(self):
        simulation = _shot_result(shots=100, successes=80).to_simulation_result()
        assert simulation.success_rate == 0.8
        assert simulation.extras["sampled"] == 1.0
        assert simulation.extras["ci_low"] < 0.8 < simulation.extras["ci_high"]

    def test_merge_is_order_insensitive_and_contiguous(self):
        first = _shot_result(shots=4, successes=3, offset=0)
        second = _shot_result(shots=6, successes=5, offset=4)
        merged = merge_shot_results([second, first])
        assert merged.shots == 10
        assert merged.successes == 8
        assert merged.errors_per_shot == (
            first.errors_per_shot + second.errors_per_shot
        )
        assert len(merged.records) == 2

    def test_merge_rejects_gaps_and_mismatches(self):
        first = _shot_result(offset=0)
        with pytest.raises(SimulationError):
            merge_shot_results([first, _shot_result(offset=5)])
        with pytest.raises(SimulationError):
            merge_shot_results([first, _shot_result(offset=4, seed=2)])
        with pytest.raises(SimulationError):
            merge_shot_results([])


# ----------------------------------------------------------------------
# Sampler determinism and sharding
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_is_bit_identical(self, bv16_compiled, noise):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        first = simulator.run_stochastic(compiled, shots=500, seed=9)
        second = simulator.run_stochastic(compiled, shots=500, seed=9)
        assert first == second

    def test_different_seeds_differ(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        first = simulator.run_stochastic(compiled, shots=500, seed=9)
        second = simulator.run_stochastic(compiled, shots=500, seed=10)
        assert first.errors_per_shot != second.errors_per_shot

    def test_shards_merge_bit_identically(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=600, seed=4)
        shards = [
            simulator.run_stochastic(compiled, shots=width, seed=4,
                                     shot_offset=offset)
            for offset, width in ((0, 100), (100, 350), (450, 150))
        ]
        assert merge_shot_results(shards) == serial

    @pytest.mark.parametrize("scenario", ["baseline", "crosstalk",
                                          "leakage", "heating_burst",
                                          "worst_case"])
    def test_every_scenario_shards_bit_identically(self, scenario,
                                                   qft16_compiled, noise):
        # scenario determinism: for each registered scenario, a seeded
        # run is bit-identical no matter how the shots are sharded
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=400, seed=4,
                                          scenario=scenario)
        shards = [
            simulator.run_stochastic(compiled, shots=width, seed=4,
                                     shot_offset=offset, scenario=scenario)
            for offset, width in ((0, 150), (150, 150), (300, 100))
        ]
        assert merge_shot_results(shards) == serial

    @pytest.mark.parametrize("scenario", ["baseline", "worst_case"])
    def test_scenario_worker_count_invariance(self, scenario):
        spec = _sampled_spec(shots=400, scenario=scenario)
        serial = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=1))
        pooled = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=4))
        assert serial.shot == pooled.shot

    def test_shards_merge_identically_past_the_record_cap(
            self, qft16_compiled, noise):
        # QFT-16 has ~25% erroneous shots, so a cap of 8 saturates in
        # every shard; the merge must still equal one serial pass
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=400, seed=4,
                                          max_records=8)
        shards = [
            simulator.run_stochastic(compiled, shots=200, seed=4,
                                     shot_offset=offset, max_records=8)
            for offset in (0, 200)
        ]
        assert sum(len(shard.records) for shard in shards) > 8
        assert merge_shot_results(shards) == serial
        with pytest.raises(SimulationError):
            merge_shot_results([
                shards[0],
                dataclasses.replace(shards[1], max_records=9),
            ])


# ----------------------------------------------------------------------
# Convergence to the analytic model (the acceptance criterion)
# ----------------------------------------------------------------------
class TestConvergence:
    def test_bv16_tilt_agrees_within_ci_at_10k_shots(self, bv16_compiled,
                                                     noise):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        analytic = simulator.run(compiled)
        shot = simulator.run_stochastic(compiled, shots=42_000, seed=2021)
        assert agrees_within_4_sigma(shot, analytic.success_rate)
        # the two estimates are genuinely close, not just inside a wide CI
        assert abs(shot.success_rate - analytic.success_rate) < 0.01

    def test_qft16_tilt_agrees_within_ci_at_10k_shots(self, qft16_compiled,
                                                      noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        analytic = simulator.run(compiled)
        shot = simulator.run_stochastic(compiled, shots=42_000, seed=2021)
        assert agrees_within_4_sigma(shot, analytic.success_rate)
        assert shot.expected_success_rate == pytest.approx(
            analytic.success_rate, rel=1e-9
        )

    def test_qccd_sampled_agrees(self, noise):
        device = QccdDevice(num_qubits=16, trap_capacity=5)
        program = QccdCompiler(device).compile(bv_workload(16))
        simulator = QccdSimulator(device, noise)
        analytic = simulator.run(program, circuit_name="bv")
        shot = simulator.run_stochastic(program, shots=21_000, seed=2021,
                                        circuit_name="bv")
        assert shot.architecture == "QCCD"
        assert agrees_within_4_sigma(shot, analytic.success_rate)

    def test_ideal_sampled_agrees(self, noise):
        device = IdealTrappedIonDevice(num_qubits=16)
        simulator = IdealSimulator(device, noise)
        circuit = bv_workload(16)
        analytic = simulator.run(circuit)
        shot = simulator.run_stochastic(circuit, shots=21_000, seed=2021)
        assert shot.architecture == "Ideal TI"
        assert agrees_within_4_sigma(shot, analytic.success_rate)


# ----------------------------------------------------------------------
# Counts sampling
# ----------------------------------------------------------------------
class TestCounts:
    def test_noiseless_bell_counts(self, noiseless):
        device = IdealTrappedIonDevice(num_qubits=2)
        bell = Circuit(2, name="bell")
        bell.h(0)
        bell.cx(0, 1)
        result = IdealSimulator(device, noiseless).run_stochastic(
            bell, shots=400, seed=5, sample_counts=True
        )
        assert result.successes == 400
        assert set(result.counts) <= {"00", "11"}
        assert sum(result.counts.values()) == 400
        # an unbiased Bell pair: both outcomes show up
        assert len(result.counts) == 2

    def test_measurement_flips_move_counts(self, noiseless):
        params = noiseless.with_overrides(measurement_error=0.5)
        device = IdealTrappedIonDevice(num_qubits=2)
        circuit = Circuit(2, name="flips")
        circuit.measure_all()  # state stays |00>, readout is noisy
        result = IdealSimulator(device, params).run_stochastic(
            circuit, shots=600, seed=5, sample_counts=True
        )
        assert result.successes < 600
        assert any(outcome != "00" for outcome in result.counts)
        flipped = sum(count for outcome, count in result.counts.items()
                      if outcome != "00")
        assert flipped == 600 - result.successes

    def test_counts_need_the_gate_sequence(self):
        from repro.sim.stochastic import StochasticSampler

        sampler = StochasticSampler(architecture="x", circuit_name="y",
                                    table=SiteTable.from_sites([]))
        with pytest.raises(SimulationError):
            sampler.run(10, sample_counts=True)

    def test_tilt_counts_are_in_logical_qubit_order(self, noiseless,
                                                    bv16_compiled):
        from repro.sim.statevector import StatevectorSimulator

        device, compiled = bv16_compiled
        result = TiltSimulator(device, noiseless).run_stochastic(
            compiled, shots=50, seed=1, sample_counts=True
        )
        # noiseless sampling must land on outcomes the *logical* circuit
        # can produce (BV leaves its ancilla in superposition, so there
        # are two); the routed/physical bit order would have zero
        # probability here because routing SWAPs permute the wires
        probabilities = StatevectorSimulator().probabilities(bv_workload(16))
        assert sum(result.counts.values()) == 50
        for outcome in result.counts:
            assert probabilities[int(outcome, 2)] > 1e-9

    def test_bare_program_counts_stay_physical(self, noiseless,
                                               bv16_compiled):
        from repro.sim.statevector import StatevectorSimulator

        device, compiled = bv16_compiled
        result = TiltSimulator(device, noiseless).run_stochastic(
            compiled.program, shots=20, seed=1, sample_counts=True
        )
        probabilities = StatevectorSimulator().probabilities(
            compiled.routed_circuit
        )
        for outcome in result.counts:
            assert probabilities[int(outcome, 2)] > 1e-9

    def test_counts_reproducible_across_sharding(self, noise, bv16_compiled):
        device, compiled = bv16_compiled
        simulator = TiltSimulator(device, noise)
        serial = simulator.run_stochastic(compiled, shots=200, seed=6,
                                          sample_counts=True)
        shards = [
            simulator.run_stochastic(compiled, shots=100, seed=6,
                                     shot_offset=offset, sample_counts=True)
            for offset in (0, 100)
        ]
        assert merge_shot_results(shards).counts == serial.counts


# ----------------------------------------------------------------------
# Vectorized sampling vs the per-shot reference
# ----------------------------------------------------------------------
def reference_run(sampler, shots, *, seed, shot_offset=0,
                  sample_counts=False, max_records=DEFAULT_MAX_RECORDS):
    """``sampler.run`` one shot at a time with scalar draws.

    The differential oracle: the draw definitions of the vectorized
    sampler (the skip scan of :class:`_ReferenceScan`; Pauli labels,
    counts-mode outcome and leak coins, each ``mix(seed, shot, stream,
    counter)``) and its per-shot leak rule, executed with plain
    per-shot control flow and one fresh statevector run per erroneous
    shot.
    """
    sites = list(sampler.sites)
    scan = _ReferenceScan(sampler)
    n = sampler.num_qubits
    ideal = None
    if sample_counts:
        ideal = np.cumsum(StatevectorSimulator().probabilities(
            _circuit_of(sampler, {}, {})))
    errors_per_shot, records, counts = [], [], {} if sample_counts else None
    mechanism_counts, mechanism_shots = {}, {}
    for shot in range(shot_offset, shot_offset + shots):
        def draw(stream, counter):
            return float(mix(seed, shot, stream, counter)[0])

        triggered, bursts = scan.triggers(seed, shot)
        # the leak rule: a leaked qubit silences every later site on it
        survivors, leaked_at = [], {}
        for position in triggered:
            site = sites[position]
            if any(qubit in leaked_at for qubit in site.qubits):
                continue
            survivors.append(position)
            if site.kind == LEAKAGE:
                for qubit in site.qubits:
                    leaked_at.setdefault(qubit, site.index)
        triggered = survivors
        kinds = ([HEATING_BURST] * sum(bursts.values())
                 + [sites[position].kind for position in triggered])
        errors = []
        for position in triggered:
            row = LABEL_TABLE[sites[position].kind]
            choice = int(draw(LABEL_STREAM, position) * len(row))
            errors.append((sites[position].index,
                           row[min(choice, len(row) - 1)]))
        errors_per_shot.append(len(errors))
        if errors and len(records) < max_records:
            records.append(ShotRecord(shot=shot, errors=tuple(errors)))
        for kind in kinds:
            mechanism_counts[kind] = mechanism_counts.get(kind, 0) + 1
        for kind in set(kinds):
            mechanism_shots[kind] = mechanism_shots.get(kind, 0) + 1
        if counts is None:
            continue
        injected = {}
        for position, (index, label) in zip(triggered, errors):
            extra = pauli_gates(sites[position], label)
            if extra:
                injected.setdefault(index, []).extend(extra)
        cumulative = ideal
        if injected or leaked_at:
            cumulative = np.cumsum(StatevectorSimulator().probabilities(
                _circuit_of(sampler, injected, leaked_at)))
        outcome = min(int(np.searchsorted(cumulative,
                                          draw(OUTCOME_STREAM, 0),
                                          side="right")),
                      len(cumulative) - 1)
        for position in triggered:
            if sites[position].kind == MEASURE_FLIP:
                for qubit in sites[position].qubits:
                    outcome ^= 1 << (n - 1 - qubit)
        for qubit in sorted(leaked_at):
            bit = 1 << (n - 1 - qubit)
            heads = draw(LEAK_STREAM, qubit) < 0.5
            outcome = (outcome | bit) if heads else (outcome & ~bit)
        bits = format(outcome, f"0{n}b")
        counts[bits] = counts.get(bits, 0) + 1
    return ShotResult(
        architecture=sampler.architecture,
        circuit_name=sampler.circuit_name,
        shots=shots, seed=seed, shot_offset=shot_offset,
        successes=errors_per_shot.count(0),
        errors_per_shot=tuple(errors_per_shot),
        records=tuple(records), max_records=max_records, counts=counts,
        num_error_sites=len(sites),
        expected_success_rate=sampler.expected_success_rate,
        analytic=sampler.analytic,
        mechanism_counts=mechanism_counts,
        mechanism_shots=mechanism_shots,
    )


class _ReferenceScan:
    """The skip scan of one sampler, run for one shot at a time.

    A timeline without a heating burst is one scan group; with bursts,
    each window is one.  A group scans its sites with ``p > 0``, except
    error sites with ``p >= 1``, which trigger without a draw.  A shot
    with ``k`` active bursts in the group reads the cumulative hazards
    of the probabilities ``min(1.0, p * multiplier ** k)`` of its
    burst-scalable sites (``OverflowError`` giving 1.0), with
    ``CERTAIN_HAZARD`` for a certain site; draw ``r`` of group ``g``
    uses trigger counter ``r * G + g``.
    """

    def __init__(self, sampler):
        self.sites = list(sampler.sites)
        self.multiplier = sampler.burst_multiplier
        bursty = any(site.kind == HEATING_BURST for site in self.sites)
        windows = (sorted({site.window for site in self.sites}) if bursty
                   else [None])
        self.groups = [
            [position for position, site in enumerate(self.sites)
             if (window is None or site.window == window)
             and site.probability > 0.0
             and (site.probability < 1.0 or site.kind == HEATING_BURST)]
            for window in windows
        ]
        self.sure = [position for position, site in enumerate(self.sites)
                     if site.kind != HEATING_BURST
                     and site.probability >= 1.0]
        self.rows = {}

    def hazards(self, group, active):
        """Group *group*'s cumulative hazards at *active* bursts."""
        if (group, active) not in self.rows:
            probabilities = []
            for position in self.groups[group]:
                site = self.sites[position]
                probability = site.probability
                if active and site.kind in BURST_SCALED_KINDS:
                    try:
                        probability = min(
                            1.0, probability * self.multiplier ** active)
                    except OverflowError:
                        probability = 1.0
                probabilities.append(probability)
            p = np.array(probabilities, dtype=float)
            hazard = np.full(p.size, CERTAIN_HAZARD)
            hazard[p < 1.0] = -np.log1p(-p[p < 1.0])
            self.rows[group, active] = np.cumsum(hazard)
        return self.rows[group, active]

    def triggers(self, seed, shot):
        """The shot's triggered error sites in position order, before
        the leak rule, and its fired bursts per window."""
        triggered, bursts = list(self.sure), {}
        for group, scan in enumerate(self.groups):
            active = resume = draws = 0
            while resume < len(scan):
                hazards = self.hazards(group, active)
                consumed = hazards[resume - 1] if resume else 0.0
                uniform = float(mix(seed, shot, TRIGGER_STREAM,
                                    draws * len(self.groups) + group)[0])
                draws += 1
                jump = int(np.searchsorted(hazards,
                                           consumed - np.log1p(-uniform),
                                           side="right"))
                if jump >= len(scan):
                    break
                site = self.sites[scan[jump]]
                if site.kind == HEATING_BURST:
                    active += 1
                    bursts[site.window] = bursts.get(site.window, 0) + 1
                else:
                    triggered.append(scan[jump])
                resume = jump + 1
        return sorted(triggered), bursts


def _circuit_of(sampler, injected, leaked_at):
    """The executed circuit with Paulis injected after their gates and
    the gates after a leak on the leaked qubit dropped."""
    circuit = Circuit(sampler.num_qubits)
    for index, gate in enumerate(sampler.gates):
        if not any(leaked_at.get(qubit, index + 1) < index
                   for qubit in gate.qubits):
            circuit.append(gate)
        for extra in injected.get(index, ()):
            circuit.append(extra)
    return circuit


def _qft8_tilt_sampler(noise, scenario=None):
    device = TiltDevice(num_qubits=8, head_size=4)
    compiled = LinQCompiler(device, CompilerConfig()).compile(
        qft_workload(8)
    )
    return TiltSimulator(device, noise).build_sampler(compiled,
                                                      scenario=scenario)


def _burst_edge_sampler(multiplier):
    """Bursts scaling Pauli sites over two windows, plus one leak."""
    sites = [
        ErrorSite(0, HEATING_BURST, (), 0.5, window=0),
        ErrorSite(1, HEATING_BURST, (), 0.5, window=0),
        ErrorSite(2, HEATING_BURST, (), 0.5, window=0),
        ErrorSite(0, PAULI_1Q, (0,), 0.2, window=0),
        ErrorSite(1, PAULI_2Q, (0, 1), 0.3, window=0),
        ErrorSite(2, LEAKAGE, (2,), 0.05, window=0),
        ErrorSite(3, HEATING_BURST, (), 0.6, window=1),
        ErrorSite(4, HEATING_BURST, (), 0.6, window=1),
        ErrorSite(3, PAULI_2Q, (1, 2), 0.25, window=1),
        ErrorSite(4, PAULI_1Q, (1,), 0.2, window=1),
    ]
    return StochasticSampler(architecture="synthetic", circuit_name="bursts",
                             table=SiteTable.from_sites(sites), num_qubits=3,
                             burst_multiplier=multiplier)


def _leak_rule_sampler():
    """Leaks that silence later sites on their qubit, later leaks of the
    same qubit among them, beside a spectator kick they leave alone."""
    sites = [
        ErrorSite(0, PAULI_2Q, (0, 1), 0.3),
        ErrorSite(0, LEAKAGE, (0,), 0.3),
        ErrorSite(0, LEAKAGE, (1,), 0.3),
        ErrorSite(1, CROSSTALK, (2,), 0.3),
        ErrorSite(1, PAULI_2Q, (1, 2), 0.3),
        ErrorSite(1, LEAKAGE, (1,), 0.3),
        ErrorSite(1, LEAKAGE, (2,), 0.3),
        ErrorSite(2, PAULI_1Q, (2,), 0.3),
        ErrorSite(3, MEASURE_FLIP, (0,), 0.3),
        ErrorSite(3, MEASURE_FLIP, (2,), 0.3),
    ]
    return StochasticSampler(architecture="synthetic", circuit_name="leaks",
                             table=SiteTable.from_sites(sites), num_qubits=3)


class TestVectorizedReference:
    """The vectorized sampler is pinned bit-identical to
    :func:`reference_run` — the same draws, one shot at a time — across
    backends, modes and shard splits."""

    def test_tilt_success_sampling_bit_identity(self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        sampler = simulator.build_sampler(compiled)
        vectorized = simulator.run_stochastic(compiled, shots=400, seed=7)
        assert vectorized == reference_run(sampler, 400, seed=7)

    def test_exhaustive_shards_merge_into_the_vectorized_serial_run(
            self, qft16_compiled, noise):
        # offsets must not shift either implementation's draws: reference
        # shards reassemble the vectorized whole bit for bit
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        sampler = simulator.build_sampler(compiled)
        vectorized = simulator.run_stochastic(compiled, shots=300, seed=11)
        shards = [
            reference_run(sampler, width, seed=11, shot_offset=offset)
            for offset, width in ((0, 120), (120, 80), (200, 100))
        ]
        assert merge_shot_results(shards) == vectorized

    def test_tilt_counts_bit_identity(self, noise):
        sampler = _qft8_tilt_sampler(noise)
        vectorized = sampler.run(150, seed=3, sample_counts=True)
        assert vectorized == reference_run(sampler, 150, seed=3,
                                           sample_counts=True)
        assert vectorized.counts is not None

    def test_scenario_counts_bit_identity(self, noise):
        # worst_case scans burst rows (bursts, leakage suppression,
        # crosstalk) and reads the leak coins
        sampler = _qft8_tilt_sampler(noise, scenario="worst_case")
        vectorized = sampler.run(100, seed=5, sample_counts=True)
        assert vectorized.mechanism_counts.get(LEAKAGE)
        assert vectorized == reference_run(sampler, 100, seed=5,
                                           sample_counts=True)

    @pytest.mark.parametrize("multiplier", [3.0, 1e200])
    def test_burst_scaling_edges_bit_identity(self, multiplier):
        # 3.0 saturates every scaled Pauli site at 1.0 from two active
        # bursts on; 1e200 ** 2 raises OverflowError, which saturates too
        sampler = _burst_edge_sampler(multiplier)
        scan = _ReferenceScan(sampler)
        for seed in (5, 2021):
            assert any(scan.triggers(seed, shot)[1].get(0, 0) >= 2
                       for shot in range(300))
            vectorized = sampler.run(300, seed=seed)
            assert vectorized.mechanism_counts.get(LEAKAGE)
            assert vectorized == reference_run(sampler, 300, seed=seed)

    @pytest.mark.parametrize("scenario", ["crosstalk", "leakage"])
    def test_skip_sampled_scenario_counts_bit_identity(self, scenario, noise):
        # without bursts the scenario takes the skip scan, then the leak
        # rule, and counts mode reads the leaked qubits' coins
        sampler = _qft8_tilt_sampler(noise, scenario=scenario)
        vectorized = sampler.run(300, seed=5, sample_counts=True)
        assert vectorized.mechanism_counts.get(scenario)
        assert vectorized == reference_run(sampler, 300, seed=5,
                                           sample_counts=True)

    def test_leak_rule_bit_identity(self):
        sampler = _leak_rule_sampler()
        for seed in (5, 2021):
            vectorized = sampler.run(400, seed=seed)
            raw, _, _ = sampler._scan_triggers(
                seed, np.arange(400, dtype=np.uint64)
            )
            assert sum(vectorized.errors_per_shot) < raw.size
            assert vectorized == reference_run(sampler, 400, seed=seed)

    def test_leakage_reference_shards_merge_into_the_serial_run(
            self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        sampler = simulator.build_sampler(compiled, scenario="leakage")
        serial = sampler.run(600, seed=11)
        assert serial.mechanism_counts.get(LEAKAGE)
        shards = [
            reference_run(sampler, width, seed=11, shot_offset=offset)
            for offset, width in ((0, 250), (250, 100), (350, 250))
        ]
        assert merge_shot_results(shards) == serial

    @pytest.mark.parametrize("scenario", ["crosstalk", "leakage"])
    def test_qccd_and_ideal_scenario_bit_identity(self, scenario, noise):
        qccd_device = QccdDevice(num_qubits=8, trap_capacity=4)
        program = QccdCompiler(qccd_device).compile(qft_workload(8))
        ideal_device = IdealTrappedIonDevice(num_qubits=8)
        samplers = [
            QccdSimulator(qccd_device, noise).build_sampler(
                program, circuit_name="qft", scenario=scenario),
            IdealSimulator(ideal_device, noise).build_sampler(
                qft_workload(8), scenario=scenario),
        ]
        for sampler in samplers:
            vectorized = sampler.run(400, seed=13)
            assert vectorized.mechanism_counts
            assert vectorized == reference_run(sampler, 400, seed=13)

    @pytest.mark.parametrize("scenario", ["crosstalk", "leakage",
                                          "heating_burst", "worst_case"])
    def test_skip_sampled_scenarios_draw_per_trigger(
            self, scenario, qft16_compiled, noise, monkeypatch):
        # per scan group, one trigger uniform per shot plus one per
        # fired burst and per scan trigger (before the leak rule drops
        # any), not one per site per shot
        from repro.sim import stochastic

        drawn, scanned, fired = [0], [0], [0]

        def counting_mix(seed, shot, stream, counter):
            uniforms = mix(seed, shot, stream, counter)
            if stream == TRIGGER_STREAM:
                drawn[0] += uniforms.size
            return uniforms

        scan = StochasticSampler._scan_triggers

        def counting_scan(self, seed, shot_indices):
            triggers = scan(self, seed, shot_indices)
            scanned[0] += triggers[0].size
            fired[0] += triggers[2].size
            return triggers

        monkeypatch.setattr(stochastic, "mix", counting_mix)
        monkeypatch.setattr(StochasticSampler, "_scan_triggers",
                            counting_scan)
        device, compiled = qft16_compiled
        sampler = TiltSimulator(device, noise).build_sampler(
            compiled, scenario=scenario
        )
        groups = (len({site.window for site in sampler.sites})
                  if any(site.kind == HEATING_BURST for site in sampler.sites)
                  else 1)
        result = sampler.run(4096, seed=2021)
        assert sum(result.errors_per_shot) <= scanned[0]
        assert (fired[0] > 0) == (scenario in ("heating_burst", "worst_case"))
        assert 4096 < drawn[0] <= 4096 * groups + fired[0] + scanned[0]

    def test_qccd_worst_case_bit_identity(self, noise):
        # QCCD traps are separate burst-coupling windows: one scan group
        # each, with interleaved counters
        device = QccdDevice(num_qubits=8, trap_capacity=4)
        program = QccdCompiler(device).compile(qft_workload(8))
        sampler = QccdSimulator(device, noise).build_sampler(
            program, circuit_name="qft", scenario="worst_case")
        windows = {site.window for site in sampler.sites
                   if site.kind == HEATING_BURST}
        assert len(windows) > 1
        vectorized = sampler.run(400, seed=13)
        assert vectorized.mechanism_counts.get(HEATING_BURST)
        assert vectorized == reference_run(sampler, 400, seed=13)

    def test_burst_reference_shards_merge_into_the_serial_run(
            self, qft16_compiled, noise):
        device, compiled = qft16_compiled
        simulator = TiltSimulator(device, noise)
        sampler = simulator.build_sampler(compiled, scenario="worst_case")
        serial = sampler.run(600, seed=11)
        assert serial.mechanism_counts.get(HEATING_BURST)
        shards = [
            reference_run(sampler, width, seed=11, shot_offset=offset)
            for offset, width in ((0, 250), (250, 100), (350, 250))
        ]
        assert merge_shot_results(shards) == serial

    def test_ideal_backend_bit_identity(self, noise):
        device = IdealTrappedIonDevice(num_qubits=6)
        simulator = IdealSimulator(device, noise)
        circuit = bv_workload(6)
        sampler = simulator.build_sampler(circuit)
        vectorized = simulator.run_stochastic(circuit, shots=200, seed=9,
                                              sample_counts=True)
        assert vectorized == reference_run(sampler, 200, seed=9,
                                           sample_counts=True)

    def test_qccd_backend_bit_identity(self, noise):
        device = QccdDevice(num_qubits=8, trap_capacity=4)
        program = QccdCompiler(device).compile(qft_workload(8))
        simulator = QccdSimulator(device, noise)
        sampler = simulator.build_sampler(program, circuit_name="qft")
        vectorized = simulator.run_stochastic(program, shots=150, seed=13,
                                              circuit_name="qft")
        assert vectorized == reference_run(sampler, 150, seed=13)


# ----------------------------------------------------------------------
# Pattern grouping and the memoised ideal distribution
# ----------------------------------------------------------------------
class TestCountsResimulationEconomy:
    def test_resimulation_runs_once_per_distinct_pattern(self):
        from repro.circuits.gate import Gate
        from repro.sim.stochastic import StochasticSampler

        # one fallible Pauli site -> at most 3 distinct error patterns
        # (X, Y or Z after gate 0), however many shots trigger it
        gates = [Gate("h", (0,)), Gate("cx", (0, 1))]
        sampler = StochasticSampler(
            architecture="x", circuit_name="bell",
            table=SiteTable.from_sites([
                ErrorSite(index=0, kind="pauli1", qubits=(0,),
                          probability=0.5),
            ]),
            gates=gates, num_qubits=2,
        )
        result = sampler.run(200, seed=3, sample_counts=True)
        stats = sampler.last_stats
        assert stats["resimulations"] == stats["distinct_patterns"]
        assert stats["distinct_patterns"] <= 3
        assert 200 - result.successes > stats["distinct_patterns"]
        # the reference re-simulates every erroneous shot anew and still
        # produces the identical result
        assert reference_run(sampler, 200, seed=3,
                             sample_counts=True) == result

    def test_ideal_distribution_computed_once_across_shards(
            self, monkeypatch, noiseless):
        from repro.sim.statevector import StatevectorSimulator
        from repro.sim.stochastic import _ideal_cumulative

        # regression: the ideal outcome distribution used to be
        # recomputed by every shard of a counts run; it is memoised on
        # the executed gate sequence now, so a 3-shard fan-out performs
        # exactly one statevector pass
        _ideal_cumulative.cache_clear()
        calls: list[str] = []
        original = StatevectorSimulator.probabilities

        def counting(self, circuit):
            calls.append(circuit.name or "")
            return original(self, circuit)

        monkeypatch.setattr(StatevectorSimulator, "probabilities", counting)
        device = IdealTrappedIonDevice(num_qubits=4)
        simulator = IdealSimulator(device, noiseless)
        circuit = qft_workload(4)
        shards = [
            simulator.run_stochastic(circuit, shots=50, seed=2,
                                     shot_offset=offset, sample_counts=True)
            for offset in (0, 50, 100)
        ]
        merged = merge_shot_results(shards)
        assert merged.shots == 150
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Shot records as columns
# ----------------------------------------------------------------------
def eager_records(sampler, shots, *, seed, shot_offset=0,
                  max_records=DEFAULT_MAX_RECORDS):
    """The records of ``sampler.run``, one :class:`ShotRecord` per
    recorded shot, built from the run's sparse triggers."""
    shot_indices = np.arange(shot_offset, shot_offset + shots,
                             dtype=np.uint64)
    trigger_shots, trigger_positions = sampler._suppress_leaked(
        *sampler._scan_triggers(seed, shot_indices)[:2])
    counts_per_shot = np.bincount(trigger_shots, minlength=shots)
    bounds = [0, *np.cumsum(counts_per_shot).tolist()]
    recorded = np.flatnonzero(counts_per_shot)[:max_records].tolist()
    labelled = bounds[recorded[-1] + 1] if recorded else 0
    positions = trigger_positions[:labelled]
    labels = sampler.table.lookup_labels(
        positions, mix(seed, shot_indices[trigger_shots[:labelled]],
                       LABEL_STREAM, positions)).tolist()
    errors = list(zip(sampler.table.indices[positions].tolist(), labels))
    return tuple(
        ShotRecord(shot=shot_offset + shot,
                   errors=tuple(errors[bounds[shot]:bounds[shot + 1]]))
        for shot in recorded)


class TestShotRecords:
    """A result keeps its records as columns and builds them when read."""

    @pytest.mark.parametrize("max_records", [0, 7, DEFAULT_MAX_RECORDS])
    def test_columns_equal_the_eager_records(self, noise, max_records):
        sampler = _qft8_tilt_sampler(noise, scenario="worst_case")
        result = sampler.run(300, seed=5, shot_offset=17,
                             max_records=max_records)
        eager = eager_records(sampler, 300, seed=5, shot_offset=17,
                              max_records=max_records)
        records = result.records
        assert isinstance(records, ShotRecords)
        assert len(eager) == min(max_records, 300 - result.successes)
        assert records == eager and eager == records
        assert records == list(eager) and tuple(records) == eager
        assert [records[row] for row in range(-len(eager), len(eager))] == [
            *eager, *eager]
        assert records[1:5] == eager[1:5] and records[::3] == eager[::3]
        assert pickle.loads(pickle.dumps(result)) == result
        with pytest.raises(IndexError):
            records[len(eager)]
        if eager:
            assert records != eager[:-1]
            assert records != tuple(dataclasses.replace(record,
                                                        shot=record.shot + 1)
                                    for record in eager)

    def test_a_tuple_of_records_becomes_columns(self):
        records = (ShotRecord(shot=2, errors=((0, "X"), (3, "FLIP"))),
                   ShotRecord(shot=3, errors=()),
                   ShotRecord(shot=2**64 - 1, errors=((1, "ZZ"),)))
        result = _shot_result(shots=4, successes=1, max_records=3,
                              records=records)
        assert isinstance(result.records, ShotRecords)
        assert result.records == records and tuple(result.records) == records
        assert dataclasses.replace(result).records == records
        assert result.records != ShotRecords.from_pairs(
            [(record.shot, record.errors) for record in records[:2]])
        with pytest.raises(SimulationError):
            _shot_result(records=records, max_records=2)

    def test_json_is_byte_identical_to_the_record_writer(self, noise):
        result = _qft8_tilt_sampler(noise, scenario="crosstalk").run(
            200, seed=3, shot_offset=5)
        assert result.records
        written = json.dumps(shot_result_to_json(result))
        by_record = [[record.shot, [list(error) for error in record.errors]]
                     for record in result.records]
        assert written == json.dumps({**shot_result_to_json(result),
                                      "records": by_record})
        assert shot_result_from_json(json.loads(written)) == result

    def test_four_shards_merge_into_the_serial_run_past_the_cap(self, noise):
        sampler = _qft8_tilt_sampler(noise, scenario="worst_case")
        serial = sampler.run(400, seed=4, max_records=30)
        shards = [sampler.run(width, seed=4, shot_offset=offset,
                              max_records=30)
                  for offset, width in ((0, 70), (70, 130), (200, 50),
                                        (250, 150))]
        assert sum(len(shard.records) for shard in shards) > 30
        merged = merge_shot_results(shards[::-1])
        assert merged == serial
        assert tuple(merged.records) == tuple(serial.records) == (
            eager_records(sampler, 400, seed=4, max_records=30))

    def test_pooled_records_equal_serial_records(self):
        spec = _sampled_spec(shots=400, scenario="worst_case")
        serial = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=1))
        pooled = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=2))
        assert serial.shot.records
        assert isinstance(pooled.shot.records, ShotRecords)
        assert serial.shot == pooled.shot

    def test_sampling_builds_no_record(self, noise, monkeypatch):
        built = []
        init = ShotRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ShotRecord, "__init__", counting_init)
        sampler = _qft8_tilt_sampler(noise, scenario="heating_burst")
        shards = [sampler.run(2048, seed=2021, shot_offset=offset)
                  for offset in (0, 2048)]
        merged = merge_shot_results(shards)
        shot_result_from_json(json.loads(json.dumps(
            shot_result_to_json(merged))))
        assert len(merged.records) == 4096 - merged.successes > 0
        assert not built
        assert merged.records[-1].shot > 0
        assert len(built) == 1


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def _sampled_spec(shots=300, seed=3, **overrides):
    fields = dict(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(mapper="trivial"),
        noise=NoiseParameters.paper_defaults(),
        shots=shots,
        seed=seed,
        label="bv-sampled",
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestEngineIntegration:
    def test_sampling_dimension_is_hashed(self):
        base = _sampled_spec()
        assert spec_key(base) == spec_key(_sampled_spec())
        assert spec_key(base) != spec_key(_sampled_spec(shots=301))
        assert spec_key(base) != spec_key(_sampled_spec(seed=4))
        assert spec_key(base) != spec_key(
            dataclasses.replace(base, shot_offset=10)
        )
        analytic = dataclasses.replace(base, shots=0, shot_offset=0, seed=0)
        assert spec_key(base) != spec_key(analytic)

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            _sampled_spec(shots=-1)
        with pytest.raises(ReproError):
            _sampled_spec(seed=-1)
        with pytest.raises(ReproError):
            dataclasses.replace(_sampled_spec(), shots=0, shot_offset=5)
        with pytest.raises(ReproError):
            _sampled_spec(simulate=False)

    def test_execute_carries_shot_result(self):
        result = ExecutionEngine(workers=1).run_one(_sampled_spec())
        assert result.shot is not None
        assert result.shot.shots == 300
        assert result.simulation is not None
        assert result.shot.analytic == result.simulation

    def test_worker_count_invariance(self):
        spec = _sampled_spec(shots=600)
        serial = run_sampled_job(spec, shards=3,
                                 engine=ExecutionEngine(workers=1))
        pooled = run_sampled_job(spec, shards=3,
                                 engine=ExecutionEngine(workers=3))
        assert serial.shot == pooled.shot

    def test_sharding_invariance(self):
        spec = _sampled_spec(shots=500)
        one = run_sampled_job(spec, shards=1,
                              engine=ExecutionEngine(workers=1))
        many = run_sampled_job(spec, shards=4,
                               engine=ExecutionEngine(workers=1))
        assert one.shot == many.shot
        assert one.key == many.key == spec_key(spec)

    def test_shard_split_covers_all_shots(self):
        shards = shard_sampling_spec(_sampled_spec(shots=10), 3)
        assert [s.shots for s in shards] == [4, 3, 3]
        assert [s.shot_offset for s in shards] == [0, 4, 7]
        with pytest.raises(ReproError):
            shard_sampling_spec(_sampled_spec(shots=10), 0)
        with pytest.raises(ReproError):
            shard_sampling_spec(
                dataclasses.replace(_sampled_spec(), shots=0, seed=0), 2
            )

    def test_more_shards_than_shots_is_harmless(self):
        shards = shard_sampling_spec(_sampled_spec(shots=2), 5)
        assert [s.shots for s in shards] == [1, 1]

    def test_disk_cache_round_trips_shot_results(self, tmp_path):
        root = tmp_path / "run"
        spec = _sampled_spec()
        first = ExecutionEngine(workers=1, store=root).run_one(spec)
        warm = ExecutionEngine(workers=1, store=root)
        second = warm.run_one(spec)
        assert second.cache_hit
        assert second.shot == first.shot

    def test_qccd_backend_sampling(self):
        spec = JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", shots=200, seed=1,
        )
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.shot is not None
        assert result.shot.architecture == "QCCD"


# ----------------------------------------------------------------------
# Analysis drivers
# ----------------------------------------------------------------------
class TestAnalysis:
    def test_convergence_study_rows(self):
        rows = convergence_study(
            "small", workloads=("BV",), shot_schedule=(50, 200),
            engine=ExecutionEngine(workers=1),
        )
        assert [row.shots for row in rows] == [50, 200]
        assert all(row.workload == "BV" for row in rows)
        assert all(row.ci_low <= row.sampled_success_rate <= row.ci_high
                   for row in rows)

    def test_sampled_figure8_covers_architectures(self):
        rows = sampled_figure8(
            "small", workloads=("BV",), shots=200,
            engine=ExecutionEngine(workers=1),
        )
        architectures = {row.architecture for row in rows}
        assert any(a.startswith("TILT") for a in architectures)
        assert "Ideal TI" in architectures
        assert "QCCD" in architectures
