"""Tests for the invariant linter (repro.devtools) and its corpus.

Four layers:

* engine mechanics — suppression grammar, treat-as scoping, rule
  selection, JSON report shape, exit codes, syntax-error handling;
* the per-rule positive/negative corpus under ``tests/lint_corpus/``
  (each rule must fire on its ``*_bad.py`` and stay silent on its
  ``*_good.py``), plus RPR006's cross-file import-cycle cases;
* ``WORKER_PATHS`` against the files a pool worker's task really
  executes, since RPR007 and RPR008 judge the code under those paths;
* the self-gate — linting the repo's own ``src``/``tests``/
  ``benchmarks``/``examples`` must come back clean, which is the same
  check the blocking CI step runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.devtools import META_RULE, all_rules, run_lint
from repro.devtools.core import WORKER_PATHS, module_name_for, package_of
from repro.devtools.lint import main as lint_main
from repro.exec.backends import _execute_chunk
from repro.exec.jobs import JobSpec, spec_key
from repro.noise.parameters import NoiseParameters
from repro.obs.profile import PROFILE_ENV_VAR
from repro.workloads.bv import bv_workload

REPO_ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "lint_corpus"

RULE_IDS = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR009")

#: How many findings each positive corpus file must produce for its rule.
EXPECTED_BAD_COUNTS = {
    "RPR001": 7,   # 2 wall-clock + 5 RNG findings in rpr001_bad.py
    "RPR002": 3,   # pool import + .run + .run_stochastic
    "RPR003": 1,   # one drift finding naming every changed field
    "RPR004": 2,   # orphaned construction + function-nested register
    "RPR005": 3,   # bare except + silent Exception + silent BaseException
    "RPR006": 4,   # imports of exec, analysis, obs, devtools from circuits
    "RPR007": 2 + 2 + 2,  # bad spec fields + ambient handles + closures
    "RPR008": 4,   # item write, .append, global rebind, .update in a helper
    "RPR009": 5,   # module-level rng + constant + ambient + const-derived
                   # + ambient mix seed
}


def lint_one(name: str, **kwargs):
    return run_lint([CORPUS / name], **kwargs)


class TestCorpus:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_corpus_fires(self, rule_id):
        report = lint_one(f"{rule_id.lower()}_bad.py", select=[rule_id])
        fired = [v for v in report.active if v.rule == rule_id]
        assert len(fired) == EXPECTED_BAD_COUNTS[rule_id], [
            v.format() for v in report.active
        ]
        assert report.exit_code == 1

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_corpus_is_clean(self, rule_id):
        report = lint_one(f"{rule_id.lower()}_good.py", select=[rule_id])
        assert report.active == [], [v.format() for v in report.active]
        assert report.exit_code == 0

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_corpus_clean_under_all_other_rules(self, rule_id):
        """Each bad file violates *only* its own rule (corpus hygiene)."""
        report = lint_one(f"{rule_id.lower()}_bad.py", ignore=[rule_id])
        assert report.active == [], [v.format() for v in report.active]

    def test_nested_register_fires_once(self):
        """A registration nested in two functions is one finding, not
        one per enclosing function."""
        report = lint_one("rpr004_nested_bad.py")
        assert [(v.rule, v.line) for v in report.active] == [
            ("RPR004", 14)
        ]

    def test_import_cycle_fixture_fires_once(self):
        """The two cycle halves linted together yield one RPR006
        finding, anchored at the alphabetically-smallest member's
        import of its partner."""
        first = CORPUS / "rpr006_cycle_a.py"
        report = run_lint([first, CORPUS / "rpr006_cycle_b.py"])
        assert [v.rule for v in report.active] == ["RPR006"]
        finding = report.active[0]
        assert finding.path.endswith("rpr006_cycle_a.py")
        assert "repro.sim.cycle_a -> repro.sim.cycle_b" in finding.message
        lines = first.read_text(encoding="utf-8").splitlines()
        assert lines[finding.line - 1].startswith("from repro.sim.cycle_b")

    def test_cycle_halves_alone_are_clean(self):
        """Half a cycle is just an unresolved import — no finding."""
        for name in ("rpr006_cycle_a.py", "rpr006_cycle_b.py"):
            report = lint_one(name)
            assert report.active == [], [
                v.format() for v in report.active
            ]

    def test_obs_wall_clock_carve_out_is_clean(self):
        """time.time()/time_ns() inside src/repro/obs/ is allowlisted."""
        report = lint_one("rpr001_obs_good.py", select=["RPR001"])
        assert report.active == [], [v.format() for v in report.active]
        assert report.exit_code == 0

    def test_obs_carve_out_does_not_leak(self):
        """The carve-out is a path prefix: near-miss paths still fire,
        and RNG findings fire even where the wall clock is allowed."""
        report = lint_one("rpr001_obs_bad.py", select=["RPR001"])
        messages = [v.message for v in report.active]
        assert len(messages) == 2, messages
        assert any("wall-clock" in message for message in messages)
        assert any("module-global" in message for message in messages)
        assert report.exit_code == 1

    def test_new_obs_modules_covered_by_carve_out(self):
        """The PR-9 observability modules (history ledger, heartbeats)
        stamp wall-clock times and must stay RPR001-clean under the
        ``src/repro/obs/`` prefix carve-out."""
        report = lint_one("rpr001_obs_history_good.py", select=["RPR001"])
        assert report.active == [], [v.format() for v in report.active]
        assert report.exit_code == 0

    def test_imported_name_mutation_counts_as_shared_state(self, tmp_path):
        """One file cannot see another's initialiser, so RPR008 treats a
        write through any name imported from ``repro`` as shared state;
        the scenario registry is the sanctioned import-time channel."""
        victim = _write(
            tmp_path, "worker.py",
            "# repro-lint: treat-as=src/repro/sim/worker.py\n"
            "from repro.noise.scenarios import _REGISTRY\n"
            "from repro.sim.stochastic import _TABLE\n"
            "def run(key, value):\n"
            "    _REGISTRY[key] = value\n"
            "    _TABLE[key] = value\n",
        )
        report = run_lint([victim], root=tmp_path)
        assert [(v.rule, v.line) for v in report.active] == [("RPR008", 6)]
        assert "repro.sim.stochastic._TABLE" in report.active[0].message


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestNaming:
    def test_module_name_for(self):
        assert (module_name_for("src/repro/exec/backends.py")
                == "repro.exec.backends")
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert (module_name_for("src/repro/sim/__init__.py")
                == "repro.sim")
        assert module_name_for("tests/test_lint.py") is None
        assert module_name_for("src/other/pkg.py") is None

    def test_package_of(self):
        assert package_of("repro.exec.backends") == "exec"
        assert package_of("repro.exceptions") == "exceptions"
        assert package_of("repro") == ""


class TestImportCycles:
    """RPR006's cycle ban, which needs every file and runs once per
    lint from ``LayeringRule.finish``."""

    @staticmethod
    def _lint(*files, tmp_path):
        return run_lint(files, root=tmp_path, select=["RPR006"])

    def test_two_module_cycle_detected(self, tmp_path):
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "from repro.noise.b import x\n")
        b = _write(tmp_path, "b.py",
                   "# repro-lint: treat-as=src/repro/noise/b.py\n"
                   "from repro.noise.a import y\n")
        report = self._lint(a, b, tmp_path=tmp_path)
        assert [(v.path, v.line) for v in report.active] == [("a.py", 2)]
        assert ("repro.noise.a -> repro.noise.b -> repro.noise.a"
                in report.active[0].message)

    def test_one_finding_per_group_of_cycles(self, tmp_path):
        """Modules that all import each other are one finding, on the
        shortest cycle through the smallest of them."""
        files = [
            _write(tmp_path, f"{name}.py",
                   f"# repro-lint: treat-as=src/repro/noise/{name}.py\n"
                   + "".join(f"import repro.noise.{target}\n"
                             for target in targets))
            for name, targets in (("a", "cb"), ("b", "a"), ("c", "b"))
        ]
        report = self._lint(*files, tmp_path=tmp_path)
        assert [(v.path, v.line) for v in report.active] == [("a.py", 3)]
        assert ("repro.noise.a -> repro.noise.b -> repro.noise.a"
                in report.active[0].message)

    def test_function_scoped_import_breaks_cycle(self, tmp_path):
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "from repro.noise.b import x\n")
        b = _write(tmp_path, "b.py",
                   "# repro-lint: treat-as=src/repro/noise/b.py\n"
                   "def late():\n"
                   "    from repro.noise.a import y\n"
                   "    return y\n")
        assert self._lint(a, b, tmp_path=tmp_path).violations == []

    def test_self_import_is_not_a_cycle(self, tmp_path):
        """A module importing itself is a runtime no-op (already in
        sys.modules), so it is no cycle."""
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "import repro.noise.a\n")
        assert self._lint(a, tmp_path=tmp_path).violations == []

    def test_submodule_import_is_not_a_package_cycle(self, tmp_path):
        """``from repro.analysis import experiments`` lands on the
        submodule, not the package __init__ — otherwise the standard
        package layout would read as an import cycle."""
        package = _write(
            tmp_path, "init.py",
            "# repro-lint: treat-as=src/repro/analysis/__init__.py\n"
            "from repro.analysis.convergence import study\n")
        convergence = _write(
            tmp_path, "convergence.py",
            "# repro-lint: treat-as=src/repro/analysis/convergence.py\n"
            "from repro.analysis import experiments\n")
        experiments = _write(
            tmp_path, "experiments.py",
            "# repro-lint: treat-as=src/repro/analysis/experiments.py\n"
            "ROWS = ()\n")
        report = self._lint(package, convergence, experiments,
                              tmp_path=tmp_path)
        assert report.violations == []

    def test_partial_package_lint_finds_no_cycle(self):
        """Linting two files of ``repro.analysis``: the submodules they
        import but the lint did not scan are not the package
        ``__init__``."""
        report = run_lint([REPO_ROOT / "src/repro/analysis/__init__.py",
                           REPO_ROOT / "src/repro/analysis/convergence.py"],
                          select=["RPR006"])
        assert report.violations == [], [
            v.format() for v in report.violations
        ]

    def test_partial_lint_still_reports_a_real_cycle(self, tmp_path):
        """An unscanned submodule on disk lands on nothing, while a name
        the package ``__init__`` defines still lands on the package."""
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        _write(package, "other.py", "VALUE = 1\n")
        init = _write(package, "__init__.py",
                      "from repro.sim.a import run\nHELPER = 2\n")
        a = _write(package, "a.py", "from repro.sim import other\n")
        assert self._lint(init, a, tmp_path=tmp_path).violations == []
        _write(package, "a.py", "from repro.sim import other, HELPER\n")
        report = self._lint(init, a, tmp_path=tmp_path)
        assert [(v.path, v.line) for v in report.active] == [
            ("src/repro/sim/__init__.py", 1)
        ]
        assert "repro.sim -> repro.sim.a -> repro.sim" in (
            report.active[0].message
        )

    def test_cycle_through_package_import_anchors_at_import(self, tmp_path):
        """A cycle closed by ``from repro.sim import cyc_b`` is reported
        at that import, so a justified disable there suppresses it."""
        source = ("# repro-lint: treat-as=src/repro/sim/cyc_a.py\n"
                  '"""Half of a cycle."""\n'
                  "from repro.sim import cyc_b{}\n")
        a = _write(tmp_path, "cyc_a.py", source.format(""))
        b = _write(tmp_path, "cyc_b.py",
                   "# repro-lint: treat-as=src/repro/sim/cyc_b.py\n"
                   "from repro.sim.cyc_a import helper\n")
        report = self._lint(a, b, tmp_path=tmp_path)
        assert [(v.path, v.line) for v in report.active] == [
            ("cyc_a.py", 3)
        ]
        _write(tmp_path, "cyc_a.py", source.format(
            "  # repro-lint: disable=RPR006 -- transitional, tracked"))
        report = self._lint(a, b, tmp_path=tmp_path)
        assert report.active == [], [v.format() for v in report.active]
        assert [v.justification for v in report.suppressed] == [
            "transitional, tracked"
        ]


def _worker_jobs() -> list[tuple[str, JobSpec]]:
    """Every toolchain, analytic and sampled, on two scenarios."""
    noise = NoiseParameters.paper_defaults()
    circuit = bv_workload(6)
    devices = {
        "tilt": TiltDevice(num_qubits=6, head_size=4),
        "qccd": QccdDevice(num_qubits=6, trap_capacity=4),
        "ideal": IdealTrappedIonDevice(num_qubits=6),
    }
    jobs = []
    for backend, device in devices.items():
        for scenario in ("baseline", "worst_case"):
            for shots in (0, 32):
                spec = JobSpec(circuit=circuit, device=device,
                               backend=backend, noise=noise,
                               scenario=scenario, shots=shots, seed=7)
                jobs.append((spec_key(spec), spec))
    return jobs


class TestWorkerPaths:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["in_process", "traced_profiled"])
    def test_worker_task_runs_only_worker_paths(self, traced, tmp_path,
                                                monkeypatch):
        """Every ``src/repro`` file a pool task executes lies under
        ``WORKER_PATHS`` — the scope RPR007 and RPR008 judge."""
        package = Path(repro.__file__).resolve().parent
        jobs = _worker_jobs()
        filenames: set[str] = set()

        def profile(frame, event, arg):
            if event == "call":
                filenames.add(frame.f_code.co_filename)

        if traced:
            monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        sys.setprofile(profile)
        try:
            _execute_chunk(jobs, str(tmp_path / "trace.jsonl")
                           if traced else None)
        finally:
            sys.setprofile(None)
        executed = {
            "src/repro/" + path.relative_to(package).as_posix()
            for path in map(Path, filenames)
            if path.resolve().is_relative_to(package)
        }
        assert {"src/repro/exec/backends.py",
                "src/repro/sim/qccd_sim.py"} <= executed
        if traced:
            assert "src/repro/obs/profile.py" in executed
        outside = sorted(path for path in executed
                         if not path.startswith(WORKER_PATHS))
        assert outside == [], outside


class TestSuppressions:
    def test_justified_suppression_passes(self):
        report = lint_one("suppression_ok.py")
        assert report.exit_code == 0
        assert len(report.suppressed) == 1
        finding = report.suppressed[0]
        assert finding.rule == "RPR001"
        assert "operator-log timestamp" in finding.justification

    def test_missing_justification_is_rejected(self):
        report = lint_one("suppression_missing_justification.py")
        rules_fired = sorted(v.rule for v in report.active)
        # the malformed directive AND the un-suppressed original
        assert rules_fired == [META_RULE, "RPR001"]
        assert report.exit_code == 1

    def test_meta_rule_cannot_be_suppressed(self, tmp_path):
        victim = tmp_path / "meta.py"
        victim.write_text(
            "# repro-lint: disable=RPR000 -- nice try\n",
            encoding="utf-8",
        )
        report = run_lint([victim], root=REPO_ROOT)
        assert [v.rule for v in report.active] == [META_RULE]

    def test_previous_line_suppression(self, tmp_path):
        victim = tmp_path / "prev.py"
        victim.write_text(
            "# repro-lint: treat-as=src/repro/analysis/x.py\n"
            "import time\n"
            "# repro-lint: disable=RPR001 -- telemetry only\n"
            "NOW = time.time()\n",
            encoding="utf-8",
        )
        report = run_lint([victim], root=REPO_ROOT)
        assert report.active == []
        assert len(report.suppressed) == 1


class TestEngine:
    def test_treat_as_scopes_path_rules(self, tmp_path):
        source = "import time\nNOW = time.time()\n"
        unscoped = tmp_path / "unscoped.py"
        unscoped.write_text(source, encoding="utf-8")
        scoped = tmp_path / "scoped.py"
        scoped.write_text(
            "# repro-lint: treat-as=src/repro/devtools/x.py\n" + source,
            encoding="utf-8",
        )
        # the wall-clock allowlist covers devtools/, so only the
        # unscoped file fires
        report = run_lint([unscoped, scoped], root=REPO_ROOT)
        assert len(report.active) == 1
        assert report.active[0].path.endswith("unscoped.py")

    def test_syntax_error_reports_meta_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        report = run_lint([broken], root=REPO_ROOT)
        assert [v.rule for v in report.active] == [META_RULE]
        assert "syntax error" in report.active[0].message

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            lint_one("rpr001_good.py", select=["RPR999"])

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint([CORPUS / "does_not_exist.py"])

    def test_corpus_directory_is_skipped_in_directory_walk(self):
        report = run_lint([CORPUS.parent / "lint_corpus" / ".."],
                          select=["RPR001"])
        # walking tests/ must not pick up the deliberately-bad corpus
        corpus_hits = [v for v in report.active
                       if "lint_corpus" in v.path]
        assert corpus_hits == []

    def test_rule_ids_and_descriptions_are_complete(self):
        rules = all_rules()
        assert tuple(rule.rule_id for rule in rules) == RULE_IDS
        assert all(rule.description for rule in rules)

    def test_report_profile_fields(self):
        report = lint_one("rpr006_bad.py")
        assert set(report.rules) == set(RULE_IDS)
        assert set(report.rule_seconds) == set(RULE_IDS)
        for rule_id in RULE_IDS:
            assert report.rule_seconds[rule_id] >= 0.0
        counts = report.file_counts
        assert len(counts) == 1
        (path, entry), = counts.items()
        assert path.endswith("rpr006_bad.py")
        assert entry == {"active": EXPECTED_BAD_COUNTS["RPR006"],
                         "suppressed": 0}


class TestCli:
    def test_json_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        code = lint_main([str(CORPUS / "rpr005_bad.py"),
                          "--json", str(out), "--quiet"])
        assert code == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        assert payload["files_scanned"] == 1
        assert payload["active"] == EXPECTED_BAD_COUNTS["RPR005"]
        assert {v["rule"] for v in payload["violations"]} == {"RPR005"}
        assert {"rule", "path", "line", "col", "message", "suppressed",
                "justification"} <= set(payload["violations"][0])
        profile = payload["profile"]
        assert set(profile) == {"rule_seconds", "files"}
        assert set(profile["rule_seconds"]) == set(RULE_IDS)
        (path, entry), = profile["files"].items()
        assert path.endswith("rpr005_bad.py")
        assert entry == {"active": EXPECTED_BAD_COUNTS["RPR005"],
                         "suppressed": 0}

    @staticmethod
    def _scrubbed(path):
        """The report minus its wall-time values (the one
        run-dependent part of the artifact)."""
        payload = json.loads(path.read_text(encoding="utf-8"))
        timed = payload["profile"].pop("rule_seconds")
        return payload, set(timed)

    def test_json_report_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        lint_main([str(CORPUS / "rpr001_bad.py"), "--json", str(first),
                   "--quiet"])
        lint_main([str(CORPUS / "rpr001_bad.py"), "--json", str(second),
                   "--quiet"])
        payload_a, timed_a = self._scrubbed(first)
        payload_b, timed_b = self._scrubbed(second)
        assert payload_a == payload_b
        assert timed_a == timed_b == set(RULE_IDS)

    def test_list_rules_exits_zero(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (META_RULE, *RULE_IDS):
            assert rule_id in out

    def test_usage_error_exit_code(self):
        assert lint_main(["--select", "NOPE", "src"]) == 2
        assert lint_main([str(CORPUS / "missing.py")]) == 2

    def test_module_invocation_contract(self):
        """``python -m repro.devtools.lint <bad file>`` exits 1."""
        completed = subprocess.run(
            (sys.executable, "-m", "repro.devtools.lint",
             str(CORPUS / "rpr002_bad.py")),
            capture_output=True, text=True, timeout=60,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 1, completed.stderr
        assert "RPR002" in completed.stdout


class TestSelfGate:
    def test_repo_tree_is_lint_clean(self):
        """The blocking CI check: the repo satisfies its own invariants,
        its module-level imports included (RPR006's cycle ban)."""
        report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests",
                           REPO_ROOT / "benchmarks",
                           REPO_ROOT / "examples"])
        assert report.active == [], "\n".join(
            v.format() for v in report.active
        )
        # the three raw-simulator call sites in the micro-benchmarks (one
        # shared by the TILT, QCCD and ideal analytic runs) carry
        # justified suppressions; anything beyond them deserves a fresh look
        assert len(report.suppressed) == 3
        assert all(v.justification for v in report.suppressed)
