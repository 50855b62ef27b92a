"""Import hygiene, checked in fresh interpreters.

A bare ``import repro`` must not load modules that no code path runs
(``asyncio`` came only with the retired thread-pool backend, ``networkx``
only with the retired ``CircuitDAG``), and each CLI must start under
``-W error::RuntimeWarning``: runpy warns, then runs the module a second
time as ``__main__``, when a package ``__init__`` already imported the
module it is asked to run.
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
        "print(sorted({'asyncio', 'networkx'} & set(sys.modules)))"
    ))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [
    "repro.analysis.search_study",
    "repro.analysis.report",
    pytest.param("repro.obs.history", marks=pytest.mark.xfail(
        strict=True,
        reason="import repro loads the engine, which imports the ledger, "
               "so runpy finds repro.obs.history in sys.modules",
    )),
])
def test_cli_starts_without_runtime_warning(module):
    completed = _python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert completed.returncode == 0, completed.stderr
