"""RPR006 — architecture layering: imports flow down, never sideways-up.

The ROADMAP's package architecture is a DAG: workload/device/noise
models at the bottom, the execution engine in the middle, search and
analysis drivers on top.  :data:`LAYER_TABLE` is the declarative
contract — for every top-level package under ``repro``, the set of
other packages it may import.  Anything not listed is a violation:

* base layers (``circuits``/``arch``/``noise``/``workloads``/``sim``,
  plus ``compiler`` between them) may not import ``exec`` or the
  driver layers — they must stay importable on a bare worker;
* ``exec`` may not import ``core``/``search``/``analysis`` (the engine
  serves drivers, never calls back into them);
* ``devtools`` imports **no runtime modules** — the linter must be able
  to analyse a broken tree without executing it;
* ``obs`` is a leaf (imports nothing in-project) and is imported only
  by ``exec`` — the observability plane hangs off the engine, not off
  the physics;
* the ``repro`` package root (``__init__``/``exceptions``/``version``)
  is the public facade and may re-export everything runtime, but never
  ``devtools`` or ``obs`` internals.

A package absent from the table is flagged on both ends until a PR
adds a row — extending the layering is a deliberate, reviewed act,
exactly like extending a suppression allowlist.  Each import statement
is judged as written, in :meth:`LayeringRule.check`.

The second check is the **import-cycle ban**: module-level imports
between scanned project modules must form a DAG.  Function-scoped
imports are exempt (they are the sanctioned cycle-breaking idiom, e.g.
``run_lint`` importing the rule registry lazily).  Cycles need every
file, so :meth:`LayeringRule.finish` finds them once per run.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Iterable

from repro.devtools.core import (
    FileContext,
    Rule,
    Violation,
    import_time_nodes,
    module_name_for,
    package_of,
    repro_imports,
)

#: package -> other repro packages it may import (itself always legal).
#: Order mirrors the architecture: the further down the dict, the higher
#: the layer.
LAYER_TABLE: dict[str, frozenset[str]] = {
    "exceptions": frozenset(),
    "version": frozenset(),
    "obs": frozenset(),                       # leaf: no runtime imports
    "circuits": frozenset({"exceptions"}),
    "arch": frozenset({"exceptions"}),
    "noise": frozenset({"circuits", "exceptions"}),
    "compiler": frozenset({"arch", "circuits", "exceptions"}),
    "workloads": frozenset({"circuits", "compiler", "exceptions"}),
    "sim": frozenset({"arch", "circuits", "compiler", "noise",
                      "exceptions"}),
    "exec": frozenset({"arch", "circuits", "compiler", "noise", "obs",
                       "sim", "exceptions"}),
    "core": frozenset({"arch", "circuits", "compiler", "exec", "noise",
                       "sim", "exceptions"}),
    "search": frozenset({"arch", "circuits", "compiler", "core", "exec",
                         "noise", "sim", "exceptions"}),
    "analysis": frozenset({"arch", "circuits", "compiler", "core", "exec",
                           "noise", "search", "sim", "workloads",
                           "exceptions"}),
    "devtools": frozenset(),                  # no runtime imports at all
    # the repro/__init__ facade: everything runtime, never devtools/obs
    "": frozenset({"arch", "circuits", "compiler", "core", "exceptions",
                   "exec", "noise", "search", "sim", "version",
                   "workloads"}),
}


class LayeringRule(Rule):
    rule_id = "RPR006"
    description = (
        "architecture layering: imports must follow the declarative "
        "layer table (circuits/arch/sim/noise/workloads -> exec -> "
        "search/analysis; devtools imports no runtime modules; obs is "
        "a leaf used only by exec) and module-level project imports "
        "must be cycle-free"
    )

    def __init__(self) -> None:
        #: module -> (its file, its module-level project imports)
        self._modules: dict[str, tuple[FileContext,
                                       list[tuple[ast.stmt, str]]]] = {}

    def applies_to(self, ctx: FileContext) -> bool:
        return module_name_for(ctx.rel) is not None

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        module = module_name_for(ctx.rel)
        package = package_of(module)
        allowed = LAYER_TABLE.get(package)
        if allowed is None:
            yield self.violation(
                ctx, ctx.tree,
                f"package 'repro.{package}' is not in the RPR006 layer "
                f"table; add a reviewed row to LAYER_TABLE "
                f"(devtools/rules/layering.py) before introducing a new "
                f"top-level package",
            )
        module_level = {id(node) for node in import_time_nodes(ctx.tree)}
        top_level: list[tuple[ast.stmt, str]] = []
        for node, target in repro_imports(ctx):
            if id(node) in module_level:
                top_level.append((node, target))
            target_pkg = package_of(target)
            if allowed is None or target_pkg in (package, *allowed):
                continue
            if target_pkg not in LAYER_TABLE:
                yield self.violation(
                    ctx, node,
                    f"import of '{target}' targets package "
                    f"'repro.{target_pkg}' which is not in the RPR006 "
                    f"layer table; add a reviewed row to LAYER_TABLE "
                    f"first",
                )
                continue
            label = target_pkg or "the repro package root"
            yield self.violation(
                ctx, node,
                f"layering violation: 'repro.{package}' may not import "
                f"'{target}' ({label} is not in its allowed layer set "
                f"{sorted(allowed) or '{}'}); invert the dependency or "
                f"move the shared code down a layer",
            )
        # the last file wins when two scope as one module (a corpus file
        # impersonating a real one, linted together)
        self._modules[module] = (ctx, top_level)

    def finish(self) -> Iterable[Violation]:
        modules, self._modules = self._modules, {}
        # each import statement -> the scanned modules it lands on
        lands = {
            name: [(node, _landing(node, target, modules, ctx.root) - {name})
                   for node, target in imports]
            for name, (ctx, imports) in modules.items()
        }
        edges = {name: set().union(*(targets for _, targets in found))
                 for name, found in lands.items()}
        for cycle in _import_cycles(edges):
            line = next(node.lineno for node, targets in lands[cycle[0]]
                        if cycle[1] in targets)
            yield Violation(
                rule=self.rule_id,
                path=modules[cycle[0]][0].real_rel,
                line=line,
                col=1,
                message=(
                    "module-level import cycle: "
                    + " -> ".join((*cycle, cycle[0]))
                    + "; break it by inverting a dependency or moving "
                    "one import into the function that needs it"
                ),
            )


def _landing(node: ast.stmt, target: str, modules: dict,
             root: Path) -> set[str]:
    """The scanned modules one import statement really lands on.

    ``from repro.analysis import experiments`` lands on the submodule
    ``repro.analysis.experiments``, not on the package ``__init__``
    (which would fabricate a cycle out of the standard package layout).
    A module that exists under ``root/src`` but was not scanned, as in a
    lint of part of a package, is a landing that reaches nothing.  Any
    other name, or a plain ``import``, lands on *target*; a target
    neither scanned nor on disk lands on its nearest scanned ancestor.
    """
    def lands_on(module: str) -> set[str] | None:
        if module in modules:
            return {module}
        path = root.joinpath("src", *module.split("."))
        if (path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()):
            return set()
        return None

    names = ([alias.name for alias in node.names]
             if isinstance(node, ast.ImportFrom) else [])
    submodules = [lands_on(f"{target}.{name}") for name in names]
    landed = set().union(*(found for found in submodules if found))
    if names and None not in submodules:
        return landed
    found = lands_on(target)
    if found is None:
        while target and target not in modules:
            target = target.rpartition(".")[0]
        found = {target} if target else set()
    return landed | found


def _import_cycles(edges: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """One cycle per group of mutually importing modules: the shortest
    through the group's smallest module, so findings are deterministic
    and one bad import yields one finding, however many cycles it
    closes."""
    def reachable(start: str) -> set[str]:
        seen: set[str] = set()
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(edges[node])
        return seen

    reach = {name: reachable(name) for name in edges}
    cycles: list[tuple[str, ...]] = []
    grouped: set[str] = set()
    for start in sorted(edges):
        if start in grouped or start not in reach[start]:
            continue
        grouped |= {name for name in reach[start] if start in reach[name]}
        # breadth first, so the first path back to start is the shortest
        paths = {start: (start,)}
        queue = deque([start])
        while start not in edges[queue[0]]:
            node = queue.popleft()
            for succ in sorted(edges[node] - paths.keys()):
                paths[succ] = paths[node] + (succ,)
                queue.append(succ)
        cycles.append(paths[queue[0]])
    return cycles
