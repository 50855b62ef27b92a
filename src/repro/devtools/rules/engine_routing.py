"""RPR002 — engine routing: drivers lower to JobSpecs, never simulate.

The ROADMAP's first invariant — *extend the engine, not the drivers* —
says every sweep, comparison, figure driver and benchmark lowers its
work to declarative :class:`~repro.exec.jobs.JobSpec` batches run
through :class:`~repro.exec.engine.ExecutionEngine`.  That is what makes
content-hash dedup, the result caches, the durable
:class:`~repro.exec.store.RunStore` and backend-invariant bit-identity
apply uniformly; a driver that calls ``Simulator.run`` /
``run_stochastic`` directly (or spins up its own pool) silently opts out
of all of it.

This rule restricts the driver layers (:data:`RESTRICTED_PREFIXES` /
:data:`RESTRICTED_FILES`) and flags:

* any ``<expr>.run_stochastic(...)`` call — only the engine's
  ``execute_spec`` may sample;
* ``<name>.run(...)`` where ``<name>`` was assigned from a simulator
  constructor in the same file (plus chained
  ``TiltSimulator(...).run(...)``) — heuristic by construction: tracking
  assignments instead of every ``.run`` call keeps ``engine.run`` /
  ``strategy.run`` / ``subprocess.run`` legal;
* imports of ``multiprocessing`` or the ``concurrent.futures``
  executors — parallelism belongs to :mod:`repro.exec.backends`
  (``workers=`` / ``TILT_REPRO_WORKERS``), not ad-hoc pools.

The ``exec`` and ``sim`` packages are the implementation of the engine
contract and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.core import FileContext, Rule, Violation, dotted_name

#: Driver layers that must stay on the engine path.
RESTRICTED_PREFIXES: tuple[str, ...] = (
    "src/repro/analysis/",
    "benchmarks/",
)
RESTRICTED_FILES: tuple[str, ...] = (
    "src/repro/core/sweep.py",
    "src/repro/core/comparison.py",
)

#: The engine implementation itself (and the simulators it drives).
ALLOWLIST_PREFIXES: tuple[str, ...] = (
    "src/repro/exec/",
    "src/repro/sim/",
)

#: Simulator classes whose run()/run_stochastic() only the engine calls.
SIMULATOR_CLASSES = frozenset({
    "TiltSimulator", "QccdSimulator", "IdealSimulator",
    "StatevectorSimulator",
})

_EXECUTOR_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})


def _is_simulator_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.rsplit(".", 1)[-1] in SIMULATOR_CLASSES


class EngineRoutingRule(Rule):
    rule_id = "RPR002"
    description = (
        "analysis/, core/sweep.py, core/comparison.py and benchmarks/ "
        "must lower work to JobSpecs through ExecutionEngine — no "
        "direct Simulator.run/run_stochastic, no ad-hoc "
        "multiprocessing/executor pools (exec/ and sim/ exempt)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.in_dir(*ALLOWLIST_PREFIXES):
            return False
        return (ctx.in_dir(*RESTRICTED_PREFIXES)
                or ctx.is_file(*RESTRICTED_FILES))

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        simulator_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and _is_simulator_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        simulator_names.add(target.id)
            elif (isinstance(node, (ast.AnnAssign, ast.NamedExpr))
                  and _is_simulator_ctor(node.value)
                  and isinstance(node.target, ast.Name)):
                simulator_names.add(node.target.id)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, simulator_names)
            elif isinstance(node, ast.Import):
                for name in node.names:
                    module = name.name.split(".", 1)[0]
                    if module == "multiprocessing":
                        yield self.violation(
                            ctx, node,
                            "driver-level multiprocessing import; "
                            "parallelism comes from the engine's "
                            "worker count (workers=)",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = (node.module or "").split(".", 1)[0]
                imported = {alias.name for alias in node.names}
                if module == "multiprocessing":
                    yield self.violation(
                        ctx, node,
                        "driver-level multiprocessing import; "
                        "parallelism comes from the engine's worker "
                        "count (workers=)",
                    )
                elif module == "concurrent" and (imported & _EXECUTOR_NAMES):
                    yield self.violation(
                        ctx, node,
                        "driver-level executor import; submit JobSpecs "
                        "with run_jobs(workers=...) instead of owning "
                        "a pool",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    simulator_names: set[str]) -> Iterable[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "run_stochastic":
            yield self.violation(
                ctx, node,
                "direct run_stochastic() call in a driver; sampled "
                "runs go through JobSpec(shots=, seed=) + run_jobs / "
                "run_sampled_job so sharding, caching and the "
                "determinism contract apply",
            )
        elif func.attr == "run":
            receiver = func.value
            direct = (isinstance(receiver, ast.Name)
                      and receiver.id in simulator_names)
            if direct or _is_simulator_ctor(receiver):
                yield self.violation(
                    ctx, node,
                    "direct Simulator.run() call in a driver; lower "
                    "the work to a JobSpec and run it through the "
                    "ExecutionEngine (execute_spec for single jobs)",
                )
