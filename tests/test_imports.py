"""Import hygiene, checked in fresh interpreters.

A bare ``import repro`` must not load modules that no code path runs
(``asyncio`` came only with the retired thread-pool backend, ``networkx``
only with the retired ``CircuitDAG``, and the run ledger loads only when
history is on), sampling must not load ``numpy.ma`` (a plain
``np.unique`` imports it on first use, about 13 ms), and each CLI must
start under
``-W error::RuntimeWarning``: runpy warns, then runs the module a second
time as ``__main__``, when a package ``__init__`` already imported the
module it is asked to run.  ``setup.py`` must name the package, so
``pip install -e .`` installs something importable.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        (sys.executable, *args),
        capture_output=True, text=True, timeout=60, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def test_import_repro_loads_no_unused_modules():
    completed = _python("-c", (
        "import sys, repro; "
        "print(sorted({'asyncio', 'networkx', 'repro.obs.history'}"
        " & set(sys.modules)))"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


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
