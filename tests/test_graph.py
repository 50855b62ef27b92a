"""Unit tests for repro.devtools.graph (import/call graphs, reachability).

Two layers:

* structural tests over the *real* ``src/`` tree — the worker-reachable
  set must include ``execute_spec`` from each backend's ``submit``
  (that is the property RPR007/RPR008 key off), the driver layers must
  stay out of it, and the repo's import graph must be acyclic;
* synthetic fixtures (``treat-as`` corpus style) for the parts easier
  to pin in isolation: submodule-import refinement, cycle detection and
  its function-scoped-import escape hatch, and name/alias resolution.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.core import discover_files, load_context
from repro.devtools.graph import (
    MODULE_BODY,
    WORKER_ROOTS,
    build_graph,
    module_name_for,
    package_of,
)

REPO_ROOT = Path(__file__).parent.parent


def graph_of(paths, root=REPO_ROOT):
    contexts = []
    for path in discover_files(paths):
        ctx, meta = load_context(path, root)
        assert not meta, [v.format() for v in meta]
        if ctx is not None:
            contexts.append(ctx)
    return build_graph(contexts)


@pytest.fixture(scope="module")
def repo_graph():
    return graph_of([REPO_ROOT / "src"])


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


class TestRepoGraph:
    def test_every_src_module_is_mapped(self, repo_graph):
        assert "repro.exec.backends" in repo_graph.modules
        assert "repro.sim.stochastic" in repo_graph.modules
        info = repo_graph.modules["repro.exec.backends"]
        assert info.package == "exec"
        assert info.ctx.real_rel == "src/repro/exec/backends.py"

    def test_import_edges_point_at_submodules(self, repo_graph):
        """``from repro.analysis import experiments`` lands on the
        submodule, not the package __init__ — otherwise the standard
        package layout would read as an import cycle."""
        edges = repo_graph.import_edges["repro.analysis.convergence"]
        assert "repro.analysis.experiments" in edges
        assert "repro.analysis" not in edges

    def test_repo_import_graph_is_acyclic(self, repo_graph):
        assert repo_graph.import_cycles() == []

    def test_all_worker_roots_present(self, repo_graph):
        expected = {f"{mod}.{qual}" for mod, qual in WORKER_ROOTS}
        assert set(repo_graph.worker_roots) == expected

    @pytest.mark.parametrize("backend_submit", [
        "repro.exec.backends.SerialBackend.submit",
        "repro.exec.backends.ProcessPoolBackend.submit",
    ])
    def test_execute_spec_reachable_from_every_backend(
            self, repo_graph, backend_submit):
        """The acceptance property: each backend's submit reaches the
        task entry point — serially by direct call, the pool backend
        through the function object handed to the executor."""
        reach = repo_graph.reachable_from([backend_submit])
        assert "repro.exec.backends.execute_spec" in reach

    def test_worker_reachable_covers_sim_but_not_drivers(
            self, repo_graph):
        reach = repo_graph.worker_reachable
        assert "repro.sim.stochastic.mix" in reach
        assert "repro.obs.trace.worker_recorder" in reach
        assert "repro.exec.engine.ExecutionEngine.run" not in reach
        assert not any(node.startswith(("repro.search.",
                                        "repro.analysis.",
                                        "repro.devtools."))
                       for node in reach)

    def test_every_simulator_is_worker_reachable(self, repo_graph):
        """execute_spec picks its simulator from a table; the local's
        union annotation still types each member as a receiver."""
        reach = repo_graph.worker_reachable
        for simulator in ("tilt_sim.TiltSimulator", "ideal_sim.IdealSimulator",
                          "qccd_sim.QccdSimulator"):
            for method in ("run", "run_stochastic"):
                assert f"repro.sim.{simulator}.{method}" in reach

    def test_module_body_not_a_worker_root(self, repo_graph):
        """Import-time code is the sanctioned registration channel —
        it must never be pulled into the worker-reachable set."""
        assert not any(node.endswith(MODULE_BODY)
                       for node in repo_graph.worker_reachable)

    def test_to_json_shape_and_determinism(self, repo_graph):
        payload = repo_graph.to_json()
        assert payload["version"] == 1
        assert payload["import_cycles"] == []
        assert payload["worker_reachable"] == sorted(
            repo_graph.worker_reachable
        )
        assert payload == repo_graph.to_json()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSyntheticGraphs:
    def test_two_module_cycle_detected(self, tmp_path):
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "from repro.noise.b import x\n")
        b = _write(tmp_path, "b.py",
                   "# repro-lint: treat-as=src/repro/noise/b.py\n"
                   "from repro.noise.a import y\n")
        graph = graph_of([a, b], root=tmp_path)
        assert graph.import_cycles() == [
            ("repro.noise.a", "repro.noise.b")
        ]

    def test_function_scoped_import_breaks_cycle(self, tmp_path):
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "from repro.noise.b import x\n")
        b = _write(tmp_path, "b.py",
                   "# repro-lint: treat-as=src/repro/noise/b.py\n"
                   "def late():\n"
                   "    from repro.noise.a import y\n"
                   "    return y\n")
        graph = graph_of([a, b], root=tmp_path)
        assert graph.import_cycles() == []
        # the function-scoped edge still exists for layering purposes
        assert ("repro.noise.a"
                in graph.import_edges["repro.noise.b"])
        assert ("repro.noise.a"
                not in graph.top_level_import_edges["repro.noise.b"])

    def test_self_import_is_not_a_cycle(self, tmp_path):
        """A module importing itself is a runtime no-op (already in
        sys.modules) — the graph drops self-edges, so no cycle."""
        a = _write(tmp_path, "a.py",
                   "# repro-lint: treat-as=src/repro/noise/a.py\n"
                   "import repro.noise.a\n")
        graph = graph_of([a], root=tmp_path)
        assert graph.import_cycles() == []
        assert graph.top_level_import_edges["repro.noise.a"] == ()

    def test_call_edges_through_alias_and_higher_order(self, tmp_path):
        worker = _write(
            tmp_path, "w.py",
            "# repro-lint: treat-as=src/repro/exec/backends.py\n"
            "def execute_spec(spec, key):\n"
            "    return spec\n"
            "class ProcessPoolBackend:\n"
            "    def submit(self, pool, specs):\n"
            "        return [pool.submit(execute_spec, s, 'k')"
            " for s in specs]\n",
        )
        graph = graph_of([worker], root=tmp_path)
        edges = graph.call_edges[
            "repro.exec.backends.ProcessPoolBackend.submit"
        ]
        assert "repro.exec.backends.execute_spec" in edges
        assert ("repro.exec.backends.execute_spec"
                in graph.worker_reachable)

    def test_cross_module_call_resolution(self, tmp_path):
        physics = _write(
            tmp_path, "p.py",
            "# repro-lint: treat-as=src/repro/sim/physics.py\n"
            "def shot_rng(seed, shot):\n"
            "    return (seed, shot)\n",
        )
        backend = _write(
            tmp_path, "b.py",
            "# repro-lint: treat-as=src/repro/exec/backends.py\n"
            "from repro.sim.physics import shot_rng\n"
            "def execute_spec(spec, key):\n"
            "    return shot_rng(spec, 0)\n",
        )
        graph = graph_of([physics, backend], root=tmp_path)
        assert ("repro.sim.physics.shot_rng"
                in graph.call_edges["repro.exec.backends.execute_spec"])
        assert "repro.sim.physics.shot_rng" in graph.worker_reachable

    def test_unreachable_module_stays_out(self, tmp_path):
        backend = _write(
            tmp_path, "b.py",
            "# repro-lint: treat-as=src/repro/exec/backends.py\n"
            "def execute_spec(spec, key):\n"
            "    return spec\n",
        )
        driver = _write(
            tmp_path, "d.py",
            "# repro-lint: treat-as=src/repro/search/driver.py\n"
            "def optimise():\n"
            "    return 1\n",
        )
        graph = graph_of([backend, driver], root=tmp_path)
        assert ("repro.search.driver.optimise"
                not in graph.worker_reachable)
        assert ("repro.exec.backends.execute_spec"
                in graph.worker_reachable)
