"""Import hygiene, checked in fresh interpreters.

A bare ``import repro`` loads no runtime layer (its public names load on
first use), so the linter reports an import cycle in a tree whose
runtime cannot import instead of dying in it.  The public surface must
not load modules that no code path runs (``asyncio`` came only with the
retired thread-pool backend, ``networkx`` only with the retired
``CircuitDAG``, and the run ledger loads only when history is on),
sampling must not load ``numpy.ma`` (a plain
``np.unique`` imports it on first use, about 13 ms), and each CLI must
start under
``-W error::RuntimeWarning``: runpy warns, then runs the module a second
time as ``__main__``, when a package ``__init__`` already imported the
module it is asked to run.  ``setup.py`` must name the package, so
``pip install -e .`` installs something importable.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent


def _python(*args: str, source: Path = REPO_ROOT / "src",
            cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        (sys.executable, *args),
        capture_output=True, text=True, timeout=60, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(source)},
    )


def test_import_repro_loads_no_runtime_layer():
    completed = _python("-c", (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro')), "
        "'numpy' in sys.modules)"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "['repro', 'repro.version'] False"


def test_import_repro_loads_no_unused_modules():
    """Every public name loads on use, and the public surface loads
    nothing that no code path runs."""
    completed = _python("-c", (
        "import sys, repro\n"
        "from repro import LinQ, TiltDevice, workloads\n"
        "assert LinQ is repro.core.LinQ and TiltDevice is repro.TiltDevice\n"
        "assert workloads.qft_workload(4).num_qubits == 4\n"
        "assert repro.exec_ is repro.exec\n"
        "assert all(getattr(repro, name) is not None\n"
        "           for name in repro.__all__)\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "print(sorted({'asyncio', 'networkx', 'repro.obs.history'}"
        " & set(sys.modules)))"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_linter_reports_a_cycle_the_runtime_cannot_import(tmp_path):
    """``compiler.layout`` and ``compiler.metrics`` importing each other
    at module level break the runtime; the linter, which never imports
    it, reports the cycle."""
    source = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src" / "repro", source / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    future = "from __future__ import annotations\n"
    for module, imported in (("layout", "metrics import CompileStats"),
                             ("metrics", "layout import QubitMapping")):
        path = source / "repro" / "compiler" / f"{module}.py"
        path.write_text(path.read_text(encoding="utf-8").replace(
            future, f"{future}\nfrom repro.compiler.{imported}\n", 1),
            encoding="utf-8")
    broken = _python("-c", "import repro.compiler", source=source,
                     cwd=tmp_path)
    assert "partially initialized module" in broken.stderr
    completed = _python("-m", "repro.devtools.lint", str(source),
                        source=source, cwd=tmp_path)
    assert completed.returncode == 1, completed.stderr
    assert "Traceback" not in completed.stderr
    assert ("RPR006 module-level import cycle: repro.compiler.layout -> "
            "repro.compiler.metrics -> repro.compiler.layout"
            in completed.stdout), completed.stdout


def test_sampling_leaves_numpy_ma_unloaded():
    completed = _python("-c", (
        "import sys\n"
        "from repro.arch.tilt import TiltDevice\n"
        "from repro.compiler.pipeline import LinQCompiler\n"
        "from repro.sim.tilt_sim import TiltSimulator\n"
        "from repro.workloads.qft import qft_workload\n"
        "device = TiltDevice(num_qubits=8, head_size=4)\n"
        "compiled = LinQCompiler(device).compile(qft_workload(8))\n"
        "simulator = TiltSimulator(device)\n"
        "for scenario in ('baseline', 'crosstalk', 'heating_burst'):\n"
        "    shot = simulator.run_stochastic(\n"
        "        compiled, shots=256, seed=3, scenario=scenario,\n"
        "        sample_counts=scenario == 'baseline')\n"
        "    assert shot.successes < shot.shots, scenario\n"
        "print('numpy.ma' in sys.modules)\n"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


@pytest.mark.parametrize("module", [
    "repro.analysis.search_study",
    "repro.analysis.report",
    "repro.obs.history",
])
def test_cli_starts_without_runtime_warning(module):
    completed = _python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert completed.returncode == 0, completed.stderr


def test_setup_py_names_the_package():
    from repro.version import __version__

    completed = _python("setup.py", "--name", "--version")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split()[-2:] == ["repro", __version__]
