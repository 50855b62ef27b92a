"""Tests for the invariant linter (repro.devtools) and its corpus.

Three layers:

* engine mechanics — suppression grammar, treat-as scoping, rule
  selection, JSON report shape, exit codes, syntax-error handling;
* the per-rule positive/negative corpus under ``tests/lint_corpus/``
  (each rule must fire on its ``*_bad.py`` and stay silent on its
  ``*_good.py``);
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

from repro.devtools import META_RULE, all_rules, run_lint
from repro.devtools.lint import main as lint_main
from repro.devtools.rules import all_graph_rules

REPO_ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "lint_corpus"

RULE_IDS = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005")
GRAPH_RULE_IDS = ("RPR006", "RPR007", "RPR008", "RPR009")
ALL_RULE_IDS = RULE_IDS + GRAPH_RULE_IDS

#: How many findings each positive corpus file must produce for its rule.
EXPECTED_BAD_COUNTS = {
    "RPR001": 7,   # 2 wall-clock + 5 RNG findings in rpr001_bad.py
    "RPR002": 3,   # pool import + .run + .run_stochastic
    "RPR003": 1,   # one drift finding naming every changed field
    "RPR004": 2,   # orphaned construction + function-nested register
    "RPR005": 3,   # bare except + silent Exception + silent BaseException
    "RPR006": 4,   # imports of exec, analysis, obs, devtools from circuits
    "RPR007": 2 + 2 + 2,  # bad spec fields + ambient handles + closures
    "RPR008": 4,   # item write, .append, global rebind, transitive .update
    "RPR009": 5,   # module-level rng + constant + ambient + const-derived
                   # + ambient mix seed
}


def lint_one(name: str, **kwargs):
    return run_lint([CORPUS / name], **kwargs)


class TestCorpus:
    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_positive_corpus_fires(self, rule_id):
        report = lint_one(f"{rule_id.lower()}_bad.py", select=[rule_id],
                          graph=True)
        fired = [v for v in report.active if v.rule == rule_id]
        assert len(fired) == EXPECTED_BAD_COUNTS[rule_id], [
            v.format() for v in report.active
        ]
        assert report.exit_code == 1

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_negative_corpus_is_clean(self, rule_id):
        report = lint_one(f"{rule_id.lower()}_good.py", select=[rule_id],
                          graph=True)
        assert report.active == [], [v.format() for v in report.active]
        assert report.exit_code == 0

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_positive_corpus_clean_under_all_other_rules(self, rule_id):
        """Each bad file violates *only* its own rule (corpus hygiene)."""
        report = lint_one(f"{rule_id.lower()}_bad.py",
                          ignore=[rule_id], graph=True)
        assert report.active == [], [v.format() for v in report.active]

    def test_import_cycle_fixture_fires_once(self):
        """The two cycle halves linted together yield one RPR006
        finding, anchored at the alphabetically-smallest member."""
        report = run_lint(
            [CORPUS / "rpr006_cycle_a.py", CORPUS / "rpr006_cycle_b.py"],
            graph=True,
        )
        assert [v.rule for v in report.active] == ["RPR006"]
        finding = report.active[0]
        assert finding.path.endswith("rpr006_cycle_a.py")
        assert "repro.sim.cycle_a -> repro.sim.cycle_b" in finding.message

    def test_cycle_halves_alone_are_clean(self):
        """Half a cycle is just an unresolved import — no finding."""
        for name in ("rpr006_cycle_a.py", "rpr006_cycle_b.py"):
            report = lint_one(name, graph=True)
            assert report.active == [], [
                v.format() for v in report.active
            ]

    def test_graph_rules_silent_without_graph_flag(self):
        """``run_lint`` without ``graph=True`` keeps RPR006-RPR009 off —
        per-file linting of a graph-bad file stays green."""
        report = lint_one("rpr006_bad.py")
        assert report.active == []
        assert set(report.rules) == set(RULE_IDS)

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

    def test_profile_mode_cache_is_sanctioned_channel(self):
        """``repro.obs.profile._MODE_CACHE`` is a sanctioned RPR008
        worker-reachable global — and the sanction is exact: an
        unsanctioned global one line away in the same module still
        fires."""
        report = run_lint(
            [CORPUS / "rpr008_profile_driver.py",
             CORPUS / "rpr008_profile_channel.py"],
            graph=True,
        )
        assert [v.rule for v in report.active] == ["RPR008"], [
            v.format() for v in report.active
        ]
        finding = report.active[0]
        assert "_LEAK" in finding.message
        assert "_MODE_CACHE" not in finding.message


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
        graph_rules = all_graph_rules()
        assert tuple(r.rule_id for r in graph_rules) == GRAPH_RULE_IDS
        assert all(r.description for r in graph_rules)
        assert all(getattr(r, "requires_graph", False)
                   for r in graph_rules)

    def test_graph_suppressions_route_through_anchor_file(self, tmp_path):
        """A graph finding honours the disable directive of the file it
        is anchored in, with the justification carried through."""
        victim = tmp_path / "layered.py"
        victim.write_text(
            "# repro-lint: treat-as=src/repro/circuits/x.py\n"
            "# repro-lint: disable=RPR006 -- transitional import, "
            "tracked for removal\n"
            "from repro.exec.backends import resolve_backend\n",
            encoding="utf-8",
        )
        report = run_lint([victim], root=REPO_ROOT, graph=True)
        assert report.active == [], [v.format() for v in report.active]
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "RPR006"
        assert "transitional" in report.suppressed[0].justification

    def test_report_profile_fields(self):
        report = lint_one("rpr006_bad.py", graph=True)
        assert set(report.rules) == set(ALL_RULE_IDS)
        assert "graph_build" in report.rule_seconds
        for rule_id in ALL_RULE_IDS:
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

    def test_graph_json_artifact_is_deterministic(self, tmp_path):
        """Two ``--graph-json`` runs over the same file agree byte for
        byte (no timings in the graph artifact at all)."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        target = str(CORPUS / "rpr007_good.py")
        assert lint_main([target, "--graph-json", str(first),
                          "--quiet"]) == 0
        assert lint_main([target, "--graph-json", str(second),
                          "--quiet"]) == 0
        assert first.read_bytes() == second.read_bytes()
        graph = json.loads(first.read_text(encoding="utf-8"))
        assert set(graph) == {"version", "modules", "import_graph",
                              "import_cycles", "call_graph",
                              "worker_roots", "worker_reachable"}
        assert ("repro.exec.backends.execute_spec"
                in graph["worker_reachable"])

    def test_list_rules_exits_zero(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (META_RULE, *ALL_RULE_IDS):
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
        including the whole-program RPR006-RPR009 pass."""
        report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests",
                           REPO_ROOT / "benchmarks",
                           REPO_ROOT / "examples"], graph=True)
        assert report.active == [], "\n".join(
            v.format() for v in report.active
        )
        # the three raw-simulator call sites in the micro-benchmarks (one
        # shared by the TILT, QCCD and ideal analytic runs) carry
        # justified suppressions; anything beyond them deserves a fresh look
        assert len(report.suppressed) == 3
        assert all(v.justification for v in report.suppressed)
        assert report.graph is not None
        assert report.graph.import_cycles() == []
