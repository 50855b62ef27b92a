"""RPR008 — shared-state hazards: worker code must not write globals.

A module-level mutable global written from worker code (any function
under :data:`~repro.devtools.core.WORKER_PATHS`) is a fork-divergence
hazard: each pool worker mutates its own copy-on-write copy and the
parent never sees it — or worse, ``fork`` timing makes it *look* shared
in tests.  The sanctioned channels for cross-process state are
architectural, not ad hoc:

* results flow back through the engine cache / ``RunStore`` (instance
  state returned by value — never module globals);
* worker-side traces flow through the ``worker_recorder`` sidecar files
  (:data:`SANCTIONED_GLOBAL_WRITES` exempts the ``repro.obs.trace``
  registries that *implement* that channel);
* scenario registration happens at **import time**: module-level code
  is not a function, so a worker that re-imports the library repeats
  it, and RPR004 polices that ``register_scenario`` (whose
  ``_REGISTRY`` write is sanctioned) is only called there.

Detected write shapes, for globals whose module-level initialiser is a
mutable container (dict/list/set literal or comprehension, or a
``dict()``/``list()``/``set()``/``defaultdict()``/… constructor), and
for every name imported from a ``repro`` module (one file cannot see
another file's initialiser, so an imported name counts as shared):

* rebinding under a ``global`` declaration (``global X; X = …``,
  ``X += …``);
* item assignment (``X[k] = v``, ``del X[k]``, ``X[k] += v``);
* mutator method calls (``X.append(…)``, ``X.update(…)``, …).

Names rebound locally without a ``global`` declaration are locals and
are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.core import (
    WORKER_PATHS,
    FileContext,
    Rule,
    Violation,
    dotted_name,
    imported_symbols,
    module_functions,
    module_globals,
    module_name_for,
)

#: Constructors producing mutable containers.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "ChainMap",
})

#: Literal/comprehension nodes producing mutable containers.
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                    ast.ListComp, ast.SetComp)

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "sort",
    "reverse",
})

#: (module, global) pairs that ARE the sanctioned cross-process
#: channels: the trace-recorder registries behind ``worker_recorder``,
#: and the scenario registry, written by the import-time
#: ``register_scenario`` calls RPR004 polices.
SANCTIONED_GLOBAL_WRITES = frozenset({
    ("repro.obs.trace", "_ACTIVE"),
    ("repro.obs.trace", "_RECORDERS"),
    ("repro.obs.trace", "_WORKER_RECORDERS"),
    ("repro.noise.scenarios", "_REGISTRY"),
})


def _is_mutable_initialiser(value: ast.expr) -> bool:
    if isinstance(value, MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        ctor = dotted_name(value.func)
        if ctor is not None and \
                ctor.rsplit(".", 1)[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


def _local_rebinds(fn: ast.AST, global_decls: set[str]) -> set[str]:
    """Names bound as plain locals (no ``global``) inside *fn*."""
    locals_: set[str] = set()

    def bind(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            locals_.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                               ast.NamedExpr)):
            bind(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
    return locals_ - global_decls


class SharedStateRule(Rule):
    rule_id = "RPR008"
    description = (
        "shared-state hazards: module-level mutable globals must not "
        "be written inside worker functions (route results through "
        "the engine cache/RunStore, traces through worker_recorder "
        "sidecars, registration through import time)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dir(*WORKER_PATHS)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        module = module_name_for(ctx.rel)
        shared: dict[str, tuple[str, str]] = {
            name: (module, name)
            for name, value in module_globals(ctx.tree).items()
            if _is_mutable_initialiser(value)
        }
        shared.update(imported_symbols(ctx))
        for qualname, fn in module_functions(ctx.tree):
            yield from self._check_function(ctx, qualname, fn, shared)

    def _check_function(
        self, ctx: FileContext, qualname: str, fn: ast.AST,
        shared: dict[str, tuple[str, str]],
    ) -> Iterable[Violation]:
        global_decls: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
        local_names = _local_rebinds(fn, global_decls)

        def origin(name: str) -> tuple[str, str] | None:
            """(module, global) a name refers to, if shared state."""
            return None if name in local_names else shared.get(name)

        flagged: set[tuple[str, str, int]] = set()

        def report(node: ast.AST, owner: tuple[str, str],
                   how: str) -> Violation | None:
            if owner in SANCTIONED_GLOBAL_WRITES:
                return None
            key = (*owner, getattr(node, "lineno", 0))
            if key in flagged:
                return None
            flagged.add(key)
            owner_module, owner_name = owner
            return self.violation(
                ctx, node,
                f"worker function {qualname}() {how} module-level "
                f"mutable global {owner_module}.{owner_name}: the write "
                f"stays in the worker process and is a shared-state "
                f"race; return the data and merge it in the parent, or "
                f"route it through the engine cache/RunStore or a "
                f"worker_recorder sidecar",
            )

        for node in ast.walk(fn):
            found: list[Violation | None] = []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in global_decls):
                        owner = origin(target.id)
                        if owner is not None:
                            found.append(report(node, owner, "rebinds"))
                    elif isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name):
                        owner = origin(target.value.id)
                        if owner is not None:
                            found.append(report(
                                node, owner, "writes an item of"))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name):
                        owner = origin(target.value.id)
                        if owner is not None:
                            found.append(report(
                                node, owner, "deletes an item of"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATOR_METHODS
                  and isinstance(node.func.value, ast.Name)):
                owner = origin(node.func.value.id)
                if owner is not None:
                    found.append(report(
                        node, owner, f"calls .{node.func.attr}() on",
                    ))
            yield from (v for v in found if v is not None)
