"""Whole-program analysis: import graph, call graph, worker-reachable set.

The PR-6 rule engine is strictly per-file; the invariants that gate the
upcoming distributed ``RemoteBackend`` are *cross-module* properties:
which code is reachable on the worker side of ``Backend.submit``,
whether everything crossing that boundary is serializable, and whether
worker-reachable code writes shared module state.  This module parses
nothing new — it consumes the same :class:`~repro.devtools.core.FileContext`
objects the per-file rules already run on — and builds three structures
over every scanned file that maps into the ``repro`` package:

* the **project import graph**: module → the ``repro.*`` modules it
  imports, with module-level imports separated from function-level ones
  (only the former participate in cycle detection, because a
  function-scoped import is the sanctioned cycle-breaking idiom);
* an **intra-project call graph**: alias-resolved where the receiver is
  static (imported names, module attributes, ``ClassName.method``,
  locals assigned from a project-class constructor or annotated with
  project classes — each member of a union — and ``self``), and
  *conservative on dynamic dispatch* — a call on a receiver whose type
  cannot be inferred edges to every project **method** with that name,
  so reachability over-approximates rather than misses.  Functions
  passed as arguments (``pool.submit(_execute_chunk, ...)``,
  ``loop.run_in_executor(pool, execute_spec, ...)``) also produce
  edges, which is exactly how ``execute_spec`` becomes reachable from
  every backend's ``submit``;
* the **worker-reachable set**: every function transitively reachable
  from the backend task entry points in :data:`WORKER_ROOTS` — the code
  that today runs in forked pool workers and tomorrow runs on N remote
  machines.  RPR007/RPR008 key off this set.

Scoping runs on ``FileContext.rel`` (the ``treat-as``-overridable path),
so the self-test corpus can impersonate any module — including
``repro.exec.backends`` itself — without living in ``src/``.

Nodes are identified as ``<module>.<qualname>`` strings, e.g.
``repro.exec.backends.ProcessPoolBackend.submit``.  Nested functions
and lambdas are merged into their enclosing function (their calls may
happen whenever the encloser runs — conservative and cheap); calls at
module level belong to the pseudo-node ``<module>.<module>`` (import
time), which is deliberately *not* a worker root: import-time execution
in a re-importing worker is the sanctioned registration channel.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.devtools.core import (
    FileContext,
    Rule,
    Violation,
    dotted_name,
    import_aliases,
)

#: Pseudo-qualname for a module's import-time (top-level) code.
MODULE_BODY = "<module>"

#: Backend task entry points: what a pool worker (or, structurally, a
#: remote worker) actually executes.  ``execute_spec`` / ``_execute_chunk``
#: are the functions handed to executors; the two ``submit`` methods
#: are the boundary itself, so anything they call in-process before the
#: hand-off (serial fallbacks, chunk planning) counts as worker-side
#: too — the conservative choice for a set used to *forbid* hazards.
WORKER_ROOTS: tuple[tuple[str, str], ...] = (
    ("repro.exec.backends", "execute_spec"),
    ("repro.exec.backends", "_execute_chunk"),
    ("repro.exec.backends", "SerialBackend.submit"),
    ("repro.exec.backends", "ProcessPoolBackend.submit"),
)


def module_name_for(rel: str) -> str | None:
    """The dotted module a project-relative path maps to, or ``None``.

    Only ``src/**.py`` files are project modules; ``__init__.py`` maps
    to its package.  Works on the *scoping* path, so a corpus file with
    ``treat-as=src/repro/exec/backends.py`` becomes that module.
    """
    if not rel.startswith("src/") or not rel.endswith(".py"):
        return None
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or parts[0] != "repro":
        return None
    return ".".join(parts)


def package_of(module: str) -> str:
    """Top-level subpackage of a module (``""`` for ``repro`` itself)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


@dataclass
class FunctionInfo:
    """One call-graph node: a function, method, or module body."""

    module: str
    qualname: str
    node: ast.AST
    class_name: str | None = None
    lineno: int = 1

    @property
    def id(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """A module-level class and its directly defined methods."""

    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ImportEdge:
    """One ``repro.*`` import statement, resolved to its target module.

    For ``from X import a, b`` the imported names are kept: when
    ``X.a`` is itself a scanned module the edge really targets that
    submodule, not the package ``__init__`` — collapsing it onto the
    package would fabricate an import cycle out of the standard
    ``from package import submodule`` idiom.
    """

    node: ast.stmt
    target: str
    top_level: bool
    names: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """Everything the graph pass knows about one project module."""

    name: str
    ctx: FileContext
    package: str
    imports: list[ImportEdge] = field(default_factory=list)
    #: local name -> ("module", mod) | ("symbol", mod, sym)
    symbols: dict[str, tuple] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level assignments: name -> value expression (last wins)
    module_globals: dict[str, ast.expr] = field(default_factory=dict)


def _collect_imports(module: ModuleInfo) -> None:
    """Populate ``imports`` (all repro.* targets) and ``symbols``."""
    tree = module.ctx.tree
    # imports inside function bodies are the sanctioned cycle-breaking
    # idiom: they stay out of the cycle check but still count for
    # layering, so edges record whether they were module level
    in_function: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    in_function.add(id(inner))

    for node in ast.walk(tree):
        top = id(node) not in in_function
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    module.imports.append(
                        ImportEdge(node=node, target=alias.name,
                                   top_level=top)
                    )
                    local = alias.asname or alias.name.split(".", 1)[0]
                    if alias.asname:
                        module.symbols[local] = ("module", alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module.name.split(".")
                # `from . import x` in a plain module resolves against
                # its package; __init__ modules resolve against themselves
                if not module.ctx.rel.endswith("/__init__.py"):
                    base = base[:-1]
                base = base[:len(base) - (node.level - 1)]
                source = ".".join(base + (node.module or "").split("."))
                source = source.rstrip(".")
            else:
                source = node.module or ""
            if not (source == "repro" or source.startswith("repro.")):
                continue
            names = tuple(
                alias.name for alias in node.names if alias.name != "*"
            )
            module.imports.append(
                ImportEdge(node=node, target=source, top_level=top,
                           names=names)
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.symbols[local] = ("symbol", source, alias.name)


def _collect_definitions(module: ModuleInfo) -> None:
    """Populate functions/classes/module_globals from the module body."""
    tree = module.ctx.tree
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = FunctionInfo(
                module=module.name, qualname=stmt.name, node=stmt,
                lineno=stmt.lineno,
            )
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(name=stmt.name, node=stmt)
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    fn = FunctionInfo(
                        module=module.name,
                        qualname=f"{stmt.name}.{member.name}",
                        node=member, class_name=stmt.name,
                        lineno=member.lineno,
                    )
                    info.methods[member.name] = fn
                    module.functions[fn.qualname] = fn
            module.classes[stmt.name] = info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.module_globals[target.id] = stmt.value
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
              and isinstance(stmt.target, ast.Name)):
            module.module_globals[stmt.target.id] = stmt.value
    # the import-time pseudo-function: module-level statements outside
    # any def (class bodies included — default expressions run at import)
    module.functions[MODULE_BODY] = FunctionInfo(
        module=module.name, qualname=MODULE_BODY, node=tree, lineno=1,
    )


def _function_body_nodes(fn: FunctionInfo) -> Iterable[ast.AST]:
    """AST nodes attributed to *fn* (nested defs merged, methods split).

    For the ``<module>`` pseudo-function this yields everything outside
    function bodies; for a real function it yields its whole subtree
    (nested functions and lambdas execute, at the latest, under it).
    """
    if fn.qualname == MODULE_BODY:
        skip: set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                for inner in ast.walk(node):
                    if inner is not node:
                        skip.add(id(inner))
        for node in ast.walk(fn.node):
            if id(node) not in skip:
                yield node
    else:
        yield from ast.walk(fn.node)


class ProjectGraph:
    """The whole-program view the RPR006–RPR009 rules analyse."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: module -> sorted tuple of *scanned* modules it imports
        self.import_edges: dict[str, tuple[str, ...]] = {}
        #: same, restricted to module-level imports (cycle detection)
        self.top_level_import_edges: dict[str, tuple[str, ...]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.call_edges: dict[str, tuple[str, ...]] = {}
        self._method_index: dict[str, tuple[str, ...]] = {}
        self._build()
        self.worker_roots: tuple[str, ...] = tuple(
            f"{mod}.{qual}" for mod, qual in WORKER_ROOTS
            if f"{mod}.{qual}" in self.functions
        )
        self.worker_reachable: frozenset[str] = self.reachable_from(
            self.worker_roots
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for module in self.modules.values():
            for fn in module.functions.values():
                self.functions[fn.id] = fn
        index: dict[str, list[str]] = {}
        for fn in self.functions.values():
            if fn.class_name is not None:
                index.setdefault(fn.name, []).append(fn.id)
        self._method_index = {
            name: tuple(sorted(ids)) for name, ids in index.items()
        }
        for name, module in self.modules.items():
            targets: set[str] = set()
            top: set[str] = set()
            for edge in module.imports:
                resolved = self._edge_targets(edge)
                targets |= resolved
                if edge.top_level:
                    top |= resolved
            self.import_edges[name] = tuple(sorted(
                t for t in targets if t != name
            ))
            self.top_level_import_edges[name] = tuple(sorted(
                t for t in top if t != name
            ))
        for module in self.modules.values():
            aliases = import_aliases(module.ctx.tree)
            for fn in module.functions.values():
                callees: set[str] = set()
                local_types = self._local_constructor_types(module, fn)
                for node in _function_body_nodes(fn):
                    if isinstance(node, ast.Call):
                        callees |= self._callee_ids(
                            module, fn, node, local_types, aliases
                        )
                callees.discard(fn.id)
                self.call_edges[fn.id] = tuple(sorted(callees))

    def _edge_targets(self, edge: ImportEdge) -> set[str]:
        """The scanned modules one import edge really lands on.

        ``from repro.analysis import experiments`` targets the
        submodule ``repro.analysis.experiments``; the package
        ``__init__`` is only a target when at least one imported name
        is a genuine symbol of it (or for a plain ``import package``).
        """
        resolved: set[str] = set()
        if edge.names:
            package_symbols = False
            for imported in edge.names:
                submodule = f"{edge.target}.{imported}"
                if submodule in self.modules:
                    resolved.add(submodule)
                else:
                    package_symbols = True
            if not package_symbols:
                return resolved
        scanned = self._scanned_target(edge.target)
        if scanned is not None:
            resolved.add(scanned)
        return resolved

    def _scanned_target(self, target: str) -> str | None:
        """Map an import target onto a scanned module (prefix-tolerant).

        ``from repro.exec import backends`` records target
        ``repro.exec``; if only ``repro.exec.backends`` was scanned the
        edge still lands there via the symbols table, so here the plain
        module (or its scanned ancestor package) is enough.
        """
        probe = target
        while probe:
            if probe in self.modules:
                return probe
            probe = probe.rpartition(".")[0]
        return None

    def _resolve_symbol(self, module: ModuleInfo, name: str,
                        _visited: frozenset = frozenset()) -> tuple | None:
        """What local *name* refers to, following re-export chains.

        Returns ``("function", FunctionInfo)``, ``("class", ModuleInfo,
        ClassInfo)``, ``("module", ModuleInfo)`` or ``None``.
        """
        key = (module.name, name)
        if key in _visited:
            return None
        _visited = _visited | {key}
        if name in module.classes:
            return ("class", module, module.classes[name])
        fn = module.functions.get(name)
        if fn is not None and name != MODULE_BODY:
            return ("function", fn)
        binding = module.symbols.get(name)
        if binding is None:
            return None
        if binding[0] == "module":
            target = self.modules.get(binding[1])
            return ("module", target) if target is not None else None
        _, source, symbol = binding
        submodule = self.modules.get(f"{source}.{symbol}")
        if submodule is not None:
            return ("module", submodule)
        origin = self.modules.get(source)
        if origin is None:
            return None
        return self._resolve_symbol(origin, symbol, _visited)

    def _annotated_classes(self, module: ModuleInfo,
                           annotation: ast.expr | None) -> list[tuple]:
        """Every project class an annotation names, unwrapping unions.

        Handles ``DeviceSpec``, ``arch.DeviceSpec``, ``"DeviceSpec"``
        (string annotation), ``Optional[X]`` and unions ``X | Y | None``
        (one entry per project class).
        """
        if annotation is None:
            return []
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return []
        if (isinstance(annotation, ast.BinOp)
                and isinstance(annotation.op, ast.BitOr)):
            return (self._annotated_classes(module, annotation.left)
                    + self._annotated_classes(module, annotation.right))
        if (isinstance(annotation, ast.Subscript)
                and dotted_name(annotation.value) in ("Optional",
                                                      "typing.Optional")):
            return self._annotated_classes(module, annotation.slice)
        name = dotted_name(annotation)
        if name is None:
            return []
        resolved = self._resolve_dotted_symbol(module, name)
        if resolved is not None and resolved[0] == "class":
            return [resolved]
        return []

    def _local_constructor_types(
        self, module: ModuleInfo, fn: FunctionInfo,
    ) -> dict[str, list[tuple[ModuleInfo, ClassInfo]]]:
        """Statically typed locals, by name: parameters and locals whose
        annotation names project classes, plus locals assigned from a
        project-class constructor."""
        types: dict[str, list[tuple[ModuleInfo, ClassInfo]]] = {}
        for node in _function_body_nodes(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args,
                            *args.kwonlyargs):
                    classes = self._annotated_classes(module,
                                                      arg.annotation)
                    if classes:
                        types[arg.arg] = [(c[1], c[2]) for c in classes]
                continue
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                target, value = node.target, node.value
            if not isinstance(target, ast.Name):
                continue
            if (isinstance(node, ast.AnnAssign)
                    and node.annotation is not None):
                classes = self._annotated_classes(module, node.annotation)
                if classes:
                    types[target.id] = [(c[1], c[2]) for c in classes]
                    continue
            if not isinstance(value, ast.Call):
                continue
            ctor = dotted_name(value.func)
            if ctor is None:
                continue
            resolved = self._resolve_dotted_symbol(module, ctor)
            if resolved is not None and resolved[0] == "class":
                types[target.id] = [(resolved[1], resolved[2])]
        return types

    def _resolve_dotted_symbol(self, module: ModuleInfo,
                               dotted: str) -> tuple | None:
        """Resolve ``a.b.c`` through local symbols and module prefixes."""
        if dotted == "repro" or dotted.startswith("repro."):
            probe = dotted
            while probe and probe not in self.modules:
                probe = probe.rpartition(".")[0]
            if probe:
                remainder = dotted[len(probe):].lstrip(".")
                target = self.modules[probe]
                if not remainder:
                    return ("module", target)
                return self._resolve_chain(target, remainder.split("."))
        head, _, tail = dotted.partition(".")
        resolved = self._resolve_symbol(module, head)
        if resolved is None or not tail:
            return resolved
        if resolved[0] == "module":
            return self._resolve_chain(resolved[1], tail.split("."))
        if resolved[0] == "class" and "." not in tail:
            method = resolved[2].methods.get(tail)
            if method is not None:
                return ("function", method)
        return None

    def _resolve_chain(self, module: ModuleInfo,
                       parts: Sequence[str]) -> tuple | None:
        resolved: tuple | None = ("module", module)
        for i, part in enumerate(parts):
            if resolved is None:
                return None
            if resolved[0] == "module":
                resolved = self._resolve_symbol(resolved[1], part)
            elif resolved[0] == "class" and i == len(parts) - 1:
                method = resolved[2].methods.get(part)
                resolved = ("function", method) if method else None
            else:
                return None
        return resolved

    def _callee_ids(self, module: ModuleInfo, fn: FunctionInfo,
                    call: ast.Call,
                    local_types: dict[str, list[tuple[ModuleInfo,
                                                      ClassInfo]]],
                    aliases: dict[str, str]) -> set[str]:
        targets: set[str] = set()
        func = call.func
        if isinstance(func, ast.Name):
            targets |= self._class_or_function_ids(
                self._resolve_symbol(module, func.id)
            )
        elif isinstance(func, ast.Attribute):
            targets |= self._attribute_call_ids(
                module, fn, func, local_types, aliases
            )
        # higher-order flow: project functions passed as arguments are
        # assumed callable by the callee (pool.submit(execute_spec, ...))
        for arg in (*call.args, *(kw.value for kw in call.keywords)):
            name = dotted_name(arg)
            if name is None:
                continue
            resolved = self._resolve_dotted_symbol(module, name)
            if resolved is not None and resolved[0] == "function":
                targets.add(resolved[1].id)
        return targets

    def _attribute_call_ids(
        self, module: ModuleInfo, fn: FunctionInfo, func: ast.Attribute,
        local_types: dict[str, list[tuple[ModuleInfo, ClassInfo]]],
        aliases: dict[str, str],
    ) -> set[str]:
        attr = func.attr
        dotted = dotted_name(func)
        if dotted is None:
            # computed receiver (call result, subscript): conservative
            # name-match over every project method with this name
            return set(self._method_index.get(attr, ()))
        head = dotted.split(".", 1)[0]
        # receiver with a locally inferred constructor type
        if head in local_types and "." not in dotted[len(head) + 1:]:
            methods = [class_info.methods.get(attr)
                       for _, class_info in local_types[head]]
            if all(method is not None for method in methods):
                return {method.id for method in methods}
            # method not defined on a class (inherited): fall back
            return set(self._method_index.get(attr, ()))
        if head in ("self", "cls") and fn.class_name is not None:
            own = module.classes.get(fn.class_name)
            if own is not None:
                method = own.methods.get(attr)
                if method is not None:
                    return {method.id}
            return set(self._method_index.get(attr, ()))
        resolved = self._resolve_dotted_symbol(module, dotted)
        if resolved is not None:
            return self._class_or_function_ids(resolved)
        alias = aliases.get(head)
        if alias is not None and not (alias == "repro"
                                      or alias.startswith("repro.")):
            # a call into an external module (numpy, json, …): no
            # project edge, and no name-match fallback either
            return set()
        if head in module.symbols or head in module.classes:
            # project symbol whose attribute did not resolve (e.g. a
            # class attribute): nothing callable found statically
            return set()
        # plain dynamic receiver (parameter, local without constructor)
        return set(self._method_index.get(attr, ()))

    def _class_or_function_ids(self, resolved: tuple | None) -> set[str]:
        if resolved is None:
            return set()
        if resolved[0] == "function":
            return {resolved[1].id}
        if resolved[0] == "class":
            _, owner, class_info = resolved
            ids = set()
            for ctor in ("__init__", "__post_init__", "__new__"):
                method = class_info.methods.get(ctor)
                if method is not None:
                    ids.add(method.id)
            return ids
        return set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> frozenset[str]:
        """Transitive call-graph closure of *roots* (roots included)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(
                callee for callee in self.call_edges.get(node, ())
                if callee not in seen
            )
        return frozenset(seen)

    def import_cycles(self) -> list[tuple[str, ...]]:
        """Module-level import cycles, as deterministic sorted tuples.

        Tarjan SCCs of size > 1 (plus self-loops) over the *top-level*
        import edges; each cycle is rotated to start at its smallest
        module name and cycles are returned sorted.
        """
        index_counter = [0]
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        index: dict[str, int] = {}
        on_stack: set[str] = set()
        sccs: list[list[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in self.top_level_import_edges.get(node, ()):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

        for node in sorted(self.modules):
            if node not in index:
                strongconnect(node)

        cycles: list[tuple[str, ...]] = []
        for component in sccs:
            # no self-loop case: a module importing itself is a runtime
            # no-op (already in sys.modules) and the graph drops
            # self-edges at construction time
            if len(component) > 1:
                smallest = min(component)
                pivot = component.index(smallest)
                cycles.append(tuple(component[pivot:] + component[:pivot]))
        return sorted(cycles)

    def module_for(self, function_id: str) -> ModuleInfo | None:
        fn = self.functions.get(function_id)
        return self.modules.get(fn.module) if fn is not None else None

    def to_json(self) -> dict:
        """The deterministic ``--graph-json`` artifact payload."""
        return {
            "version": 1,
            "modules": {
                name: info.ctx.real_rel
                for name, info in sorted(self.modules.items())
            },
            "import_graph": {
                name: list(edges)
                for name, edges in sorted(self.import_edges.items())
            },
            "import_cycles": [list(cycle) for cycle in self.import_cycles()],
            "call_graph": {
                node: list(edges)
                for node, edges in sorted(self.call_edges.items())
                if edges
            },
            "worker_roots": sorted(self.worker_roots),
            "worker_reachable": sorted(self.worker_reachable),
        }


def build_graph(contexts: Iterable[FileContext]) -> ProjectGraph:
    """Build the project graph from already-parsed file contexts.

    Contexts whose scoping path does not map into the ``repro`` package
    (tests, benchmarks, examples without a ``treat-as``) are ignored —
    they are linted per-file but are not project modules.  When two
    contexts map to one module (a corpus file impersonating a real one,
    linted together) the last one wins.
    """
    modules: dict[str, ModuleInfo] = {}
    for ctx in contexts:
        name = module_name_for(ctx.rel)
        if name is None:
            continue
        module = ModuleInfo(name=name, ctx=ctx, package=package_of(name))
        _collect_imports(module)
        _collect_definitions(module)
        modules[name] = module
    return ProjectGraph(modules)


class GraphRule(Rule):
    """Base class for whole-program rules (RPR006–RPR009).

    Instead of per-file :meth:`check`, subclasses implement
    :meth:`check_project` over the full :class:`ProjectGraph`; the
    engine routes each finding through the suppression directives of
    the file it is anchored in, exactly like per-file findings.
    """

    requires_graph = True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def check_project(self, project: ProjectGraph) -> Iterable[Violation]:
        raise NotImplementedError
