"""Golden spec-key and result fixture: keys and results are pinned.

``tests/fixtures/spec_keys.json`` commits three snapshots:

* ``keys`` — :func:`repro.exec.jobs.spec_key` for a representative spec
  of every execution style (analytic, compile-only, sampled, sharded,
  scenario, QCCD, ideal).  These tests recompute them and assert
  byte-identity, so any change that moves cache keys — a JobSpec field,
  a default, the canonical payload, the hash — fails loudly instead of
  silently orphaning every on-disk RunStore.
* ``jobspec_fields`` — the JobSpec dataclass fields as extracted from
  the **AST** by lint rule RPR003
  (:func:`repro.devtools.rules.spec_keys.extract_dataclass_fields`).
  The lint rule compares the source tree against this snapshot on every
  run, so the fixture and the dataclass can only change together.
* ``result_digests`` — SHA-256 digests of what the same specs compute
  (their :func:`~repro.exec.jobs.result_to_json`), plus the small-scale
  Table III and Figure 8 rows and the paper-scale Figure 6, Figure 8
  and Table III rows, recorded under ``result_semantics_version``.  Wall-clock fields are left out and
  floats are rounded to 10 significant digits, so the digests agree
  across machines and interpreters.  A digest that moves while the
  recorded version equals
  :data:`~repro.exec.jobs.RESULT_SEMANTICS_VERSION` fails: results
  changed for unchanged keys, and stores would serve stale ones.

Intentional changes regenerate the fixture::

    PYTHONPATH=src python tests/test_spec_keys.py --update

and the diff review is where result-semantics bumps get decided.

The paper's headline, the Figure 8 TILT/QCCD success-rate ratios at head
16 and head 32, is also pinned here in readable form
(:data:`PAPER_HEADLINE_RATIOS`), so a change that moves it shows which
workload moved.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig
from repro.core.comparison import tilt_vs_qccd_ratios
from repro.devtools.rules.spec_keys import extract_dataclass_fields
from repro.exec import ExecutionEngine
from repro.exec.jobs import (
    RESULT_SEMANTICS_VERSION,
    JobSpec,
    result_to_json,
    spec_key,
)
from repro.noise.parameters import NoiseParameters
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "spec_keys.json"
JOBS_SOURCE = (Path(__file__).parent.parent / "src" / "repro" / "exec"
               / "jobs.py")

#: Figure 8 at paper scale: TILT/QCCD success-rate ratio per workload and
#: their max and geometric mean, per TILT head size, at 4 significant
#: digits.
PAPER_HEADLINE_RATIOS = {
    16: {"ADDER": 0.965, "BV": 0.9574, "QAOA": 1.464, "RCS": 3.259,
         "QFT": 8.246e-06, "SQRT": 0.2423,
         "max": 3.259, "geometric_mean": 0.1437},
    32: {"ADDER": 1.026, "BV": 1.046, "QAOA": 1.828, "RCS": 4.754,
         "QFT": 71.93, "SQRT": 2.316,
         "max": 71.93, "geometric_mean": 3.403},
}

#: Wall-clock measurements: they differ run to run, so no digest covers them.
WALL_CLOCK_FIELDS = frozenset({
    "wall_time_s", "time_decompose_s", "time_swap_s", "time_schedule_s",
})


def representative_specs() -> dict[str, JobSpec]:
    """One spec per execution style the engine caches.

    Every construction is fully explicit (fixed circuit, device, config,
    calibration, seeds) so the mapping name -> key is a pure function of
    the key derivation — nothing here may depend on environment,
    wall-clock or RNG state.
    """
    tilt = TiltDevice(num_qubits=16, head_size=8)
    config = CompilerConfig(max_swap_len=7, mapper="trivial")
    noise = NoiseParameters.paper_defaults()
    return {
        "analytic_tilt_bv16": JobSpec(
            circuit=bv_workload(16), device=tilt, config=config,
            noise=noise,
        ),
        "compile_only_tilt_bv16": JobSpec(
            circuit=bv_workload(16), device=tilt, config=config,
            noise=noise, simulate=False,
        ),
        "sampled_tilt_qft12": JobSpec(
            circuit=qft_workload(12), device=tilt, config=config,
            noise=noise, shots=256, seed=7,
        ),
        "sampled_shard_tilt_qft12": JobSpec(
            circuit=qft_workload(12), device=tilt, config=config,
            noise=noise, shots=128, seed=7, shot_offset=128,
        ),
        "sampled_crosstalk_tilt_qft12": JobSpec(
            circuit=qft_workload(12), device=tilt, config=config,
            noise=noise, shots=256, seed=7, scenario="crosstalk",
        ),
        "sampled_leakage_tilt_qft12": JobSpec(
            circuit=qft_workload(12), device=tilt, config=config,
            noise=noise, shots=256, seed=7, scenario="leakage",
        ),
        "sampled_heating_burst_tilt_qft12": JobSpec(
            circuit=qft_workload(12), device=tilt, config=config,
            noise=noise, shots=256, seed=7, scenario="heating_burst",
        ),
        "sampled_worst_case_qccd_qft12": JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", noise=noise, shots=256, seed=7,
            scenario="worst_case",
        ),
        "sampled_qccd_qft12": JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", noise=noise, shots=256, seed=7,
        ),
        "sampled_ideal_qft12": JobSpec(
            circuit=qft_workload(12),
            device=IdealTrappedIonDevice(num_qubits=12),
            backend="ideal", noise=noise, shots=256, seed=7,
        ),
        "sampled_crosstalk_ideal_qft12": JobSpec(
            circuit=qft_workload(12),
            device=IdealTrappedIonDevice(num_qubits=12),
            backend="ideal", noise=noise, shots=256, seed=7,
            scenario="crosstalk",
        ),
        "scenario_crosstalk_tilt_bv16": JobSpec(
            circuit=bv_workload(16), device=tilt, config=config,
            noise=noise, scenario="crosstalk",
        ),
        "architecture_qccd_qft12": JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", noise=noise,
        ),
        "architecture_ideal_bv8": JobSpec(
            circuit=bv_workload(8),
            device=IdealTrappedIonDevice(num_qubits=8),
            backend="ideal", noise=noise,
        ),
    }


def _canonical(value):
    """*value* without wall-clock fields, floats at 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()
                if key not in WALL_CLOCK_FIELDS}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def paper_scale_rows() -> dict:
    """Figure 6, Figure 8 and Table III at paper scale, on one engine."""
    engine = ExecutionEngine(workers=1)
    return {
        "figure6_paper": experiments.figure6("paper", engine=engine),
        "figure8_paper": experiments.figure8("paper", engine=engine),
        "table3_paper": experiments.table3("paper", engine=engine),
    }


@functools.lru_cache(maxsize=None)
def current_result_digests() -> dict:
    """Digests of every representative result and every pinned table."""
    engine = ExecutionEngine(workers=1)
    specs = representative_specs()
    results = engine.run(list(specs.values()))
    rows = {
        "table3_small": experiments.table3("small", engine=engine),
        "figure8_small": experiments.figure8("small", engine=engine),
        **paper_scale_rows(),
    }
    return {
        "specs": {name: digest(result_to_json(result))
                  for name, result in zip(specs, results)},
        "tables": {name: digest([dataclasses.asdict(row) for row in table])
                   for name, table in rows.items()},
    }


def current_snapshot() -> dict:
    """The fixture payload the current tree would record."""
    tree = ast.parse(JOBS_SOURCE.read_text(encoding="utf-8"))
    return {
        "version": 1,
        "comment": "golden cache-key and result fixture; regenerate with "
                   "'PYTHONPATH=src python tests/test_spec_keys.py "
                   "--update' and review key compatibility and result "
                   "changes in the diff",
        "jobspec_fields": extract_dataclass_fields(tree, "JobSpec"),
        "keys": {name: spec_key(spec)
                 for name, spec in sorted(representative_specs().items())},
        "result_semantics_version": RESULT_SEMANTICS_VERSION,
        "result_digests": current_result_digests(),
    }


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


class TestGoldenSpecKeys:
    def test_keys_are_byte_identical(self):
        recorded = load_fixture()["keys"]
        computed = {name: spec_key(spec)
                    for name, spec in representative_specs().items()}
        assert computed == recorded, (
            "spec keys drifted from tests/fixtures/spec_keys.json — "
            "every on-disk cache/store keyed by the old values is now "
            "orphaned; if intentional, regenerate the fixture and "
            "consider a RESULT_SEMANTICS_VERSION bump"
        )

    def test_every_style_has_a_distinct_key(self):
        keys = list(load_fixture()["keys"].values())
        assert len(set(keys)) == len(keys)

    def test_fixture_field_snapshot_matches_source_ast(self):
        tree = ast.parse(JOBS_SOURCE.read_text(encoding="utf-8"))
        assert (extract_dataclass_fields(tree, "JobSpec")
                == load_fixture()["jobspec_fields"])

    def test_fixture_field_snapshot_matches_runtime_dataclass(self):
        recorded = [field["name"]
                    for field in load_fixture()["jobspec_fields"]]
        runtime = [field.name for field in dataclasses.fields(JobSpec)]
        assert recorded == runtime

    def test_baseline_scenario_and_zero_shots_stay_keyless(self):
        """The non-default-only hashing contract, pinned structurally."""
        specs = representative_specs()
        base = specs["analytic_tilt_bv16"]
        assert spec_key(base) == spec_key(dataclasses.replace(
            base, scenario="baseline", shots=0, seed=0, shot_offset=0,
        ))
        # seed participates only when shots do
        assert spec_key(dataclasses.replace(base, seed=99)) == spec_key(base)


class TestGoldenResults:
    @pytest.mark.parametrize("section", ["specs", "tables"])
    def test_result_digests_are_stable(self, section):
        fixture = load_fixture()
        recorded = fixture["result_digests"][section]
        computed = current_result_digests()[section]
        if computed == recorded:
            return
        moved = sorted(name for name in recorded.keys() | computed.keys()
                       if computed.get(name) != recorded.get(name))
        if fixture["result_semantics_version"] == RESULT_SEMANTICS_VERSION:
            pytest.fail(
                f"results changed for unchanged keys ({', '.join(moved)}): "
                "bump RESULT_SEMANTICS_VERSION in src/repro/exec/jobs.py "
                "so no RunStore serves the old ones, then regenerate "
                "tests/fixtures/spec_keys.json with --update"
            )
        pytest.fail(
            f"RESULT_SEMANTICS_VERSION is now {RESULT_SEMANTICS_VERSION} "
            f"but the fixture records {fixture['result_semantics_version']}"
            ": regenerate tests/fixtures/spec_keys.json with --update"
        )

    def test_fixture_records_the_current_semantics_version(self):
        assert (load_fixture()["result_semantics_version"]
                == RESULT_SEMANTICS_VERSION), (
            "regenerate tests/fixtures/spec_keys.json with --update after "
            "bumping RESULT_SEMANTICS_VERSION"
        )

    def test_digests_ignore_wall_clock_and_float_noise(self):
        base = {"wall_time_s": 1.0, "stats": {"time_swap_s": 2.0},
                "success_rate": 0.123456789012}
        noisy = {"wall_time_s": 9.0, "stats": {"time_swap_s": 7.0},
                 "success_rate": 0.123456789013}
        assert digest(base) == digest(noisy)
        assert digest(base) != digest({**base, "success_rate": 0.1235})


class TestPaperScale:
    @pytest.mark.parametrize("head_size", sorted(PAPER_HEADLINE_RATIOS))
    def test_headline_ratios(self, head_size):
        ratios = tilt_vs_qccd_ratios(paper_scale_rows()["figure8_paper"],
                                     tilt_label=f"TILT head {head_size}")
        assert ({name: float(f"{ratio:.4g}")
                 for name, ratio in ratios.items()}
                == PAPER_HEADLINE_RATIOS[head_size])


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print("usage: PYTHONPATH=src python tests/test_spec_keys.py "
              "--update", file=sys.stderr)
        return 2
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(current_snapshot(), indent=2, sort_keys=True)
    FIXTURE_PATH.write_text(payload + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
