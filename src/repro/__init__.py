"""Reproduction of TILT (HPCA 2021): the LinQ toolflow and its substrates.

The package is organised as:

* :mod:`repro.circuits` — circuit IR (gates, circuits, DAG, QASM, unitaries).
* :mod:`repro.workloads` — the Table II benchmark generators.
* :mod:`repro.arch` — device models (TILT, Ideal TI, QCCD).
* :mod:`repro.noise` — gate times (Eq. 3), heating and fidelity (Eq. 4).
* :mod:`repro.compiler` — LinQ passes: decomposition, mapping, swap
  insertion (Algorithm 1), tape scheduling (Algorithm 2), QCCD routing.
* :mod:`repro.sim` — statevector, TILT, QCCD and Ideal-TI simulators.
* :mod:`repro.core` — the :class:`LinQ` facade, architecture comparisons
  and parameter sweeps.
* :mod:`repro.search` — declarative design-space exploration and
  autotuning (grid / random / successive halving, Pareto fronts).
* :mod:`repro.analysis` — drivers that regenerate every figure and table.

Quickstart::

    from repro import LinQ, TiltDevice, workloads

    toolflow = LinQ(TiltDevice(num_qubits=64, head_size=16))
    report = toolflow.run(workloads.qft_workload(64))
    print(report.summary())

Every name in ``__all__`` loads on first use (PEP 562): ``import
repro`` runs no runtime layer, so the linter (``python -m
repro.devtools.lint``) works on a tree whose runtime cannot import.
"""

import importlib

from repro.version import __version__

#: The public names each module exports here.
_EXPORTS = {
    "repro.arch": ("IdealTrappedIonDevice", "QccdDevice", "TiltDevice"),
    "repro.circuits": ("Circuit", "Gate"),
    "repro.compiler": ("CompileResult", "CompilerConfig", "LinQCompiler",
                       "QccdCompiler", "compile_for_qccd",
                       "compile_for_tilt"),
    "repro.core": ("LinQ", "LinQRunReport", "compare_architectures",
                   "max_swap_len_sweep", "tilt_vs_qccd_ratios"),
    "repro.exec": ("ExecutionEngine", "JobResult", "JobSpec", "ResultCache",
                   "RunManifest", "RunStore", "read_manifest", "run_jobs",
                   "run_sampled_job"),
    "repro.exceptions": ("CircuitError", "CompilationError", "DeviceError",
                         "QasmError", "ReproError", "RoutingError",
                         "SchedulingError", "SimulationError"),
    "repro.noise": ("NoiseParameters",),
    "repro.sim": ("IdealSimulator", "QccdSimulator", "ShotResult",
                  "SimulationResult", "StatevectorSimulator",
                  "TiltSimulator", "merge_shot_results"),
}
_HOMES = {name: module for module, names in _EXPORTS.items()
          for name in names}
#: The subpackages exported by name (``exec_`` is :mod:`repro.exec`).
_SUBPACKAGES = {"arch": "arch", "circuits": "circuits",
                "compiler": "compiler", "core": "core", "exec_": "exec",
                "noise": "noise", "search": "search", "sim": "sim",
                "workloads": "workloads"}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        value = importlib.import_module(f"repro.{_SUBPACKAGES[name]}")
    elif name in _HOMES:
        value = getattr(importlib.import_module(_HOMES[name]), name)
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Circuit",
    "CircuitError",
    "CompilationError",
    "CompileResult",
    "CompilerConfig",
    "DeviceError",
    "ExecutionEngine",
    "Gate",
    "IdealSimulator",
    "IdealTrappedIonDevice",
    "JobResult",
    "JobSpec",
    "LinQ",
    "LinQCompiler",
    "LinQRunReport",
    "NoiseParameters",
    "ResultCache",
    "QasmError",
    "QccdCompiler",
    "QccdDevice",
    "QccdSimulator",
    "ReproError",
    "RoutingError",
    "RunManifest",
    "RunStore",
    "SchedulingError",
    "ShotResult",
    "SimulationError",
    "SimulationResult",
    "StatevectorSimulator",
    "TiltDevice",
    "TiltSimulator",
    "__version__",
    "arch",
    "circuits",
    "compare_architectures",
    "compile_for_qccd",
    "compile_for_tilt",
    "compiler",
    "core",
    "exec_",
    "max_swap_len_sweep",
    "merge_shot_results",
    "noise",
    "read_manifest",
    "run_jobs",
    "run_sampled_job",
    "search",
    "sim",
    "tilt_vs_qccd_ratios",
    "workloads",
]
