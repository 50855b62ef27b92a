"""RPR007 — worker-boundary serialization safety.

Everything crossing ``Backend.submit`` must survive pickling into a
process-pool worker.  Three statically checkable hazards:

* **closures over the boundary** — a lambda or locally defined function
  passed to a dispatch call (``pool.submit(...)``,
  ``loop.run_in_executor(...)``, ``Backend.submit``) cannot be pickled
  by the process pool; task functions must be module level (that is why
  ``execute_spec`` and ``_execute_chunk`` live at module scope);
* **non-serializable ``JobSpec`` fields** — every field annotation of a
  spec class (:data:`SPEC_CLASSES`, in ``exec/``) must be built from
  :data:`SERIALIZABLE_ANNOTATIONS`: plain data, or the project
  dataclasses with pinned JSON round trips.  A ``Callable``, file
  object, lock or recorder field would make every spec batch
  unpicklable the day it is populated;
* **ambient handle capture** — functions under
  :data:`~repro.devtools.core.WORKER_PATHS` may not read module-level
  globals holding live OS handles: ``open(...)`` results,
  ``threading.Lock``-family objects, or parent-process
  ``TraceRecorder`` handles (:data:`PARENT_HANDLE_GLOBALS`).  Under
  ``fork`` these are silently shared with the parent (a held lock
  deadlocks, a shared file descriptor interleaves writes); under
  ``spawn`` they simply do not exist.  ``repro.obs.trace`` is the
  sanctioned channel implementation (workers write private sidecar
  segments via ``worker_recorder``) and is exempt as a module.
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
    import_time_nodes,
    module_functions,
    module_globals,
    module_name_for,
)

#: Call attributes that hand work (and therefore arguments) to another
#: process or thread.
BOUNDARY_CALL_ATTRS = frozenset({"submit", "run_in_executor"})

#: Spec classes whose fields cross the worker boundary by value.
SPEC_CLASSES = frozenset({"JobSpec"})

#: Annotation atoms a spec field may be built from: plain data, and the
#: project dataclasses whose JSON round trip is pinned by tests.
SERIALIZABLE_ANNOTATIONS = frozenset({
    "None", "bool", "int", "float", "str", "bytes",
    "tuple", "list", "dict", "set", "frozenset",
    "Optional", "Union", "Literal", "Final",
    "Circuit", "DeviceSpec", "CompilerConfig", "NoiseParameters",
})

#: Constructors whose module-level results are live per-process handles.
HANDLE_CONSTRUCTORS = frozenset({
    "open", "Lock", "RLock", "Condition", "Semaphore",
    "BoundedSemaphore", "Event", "Barrier", "TraceRecorder",
})

#: (module, global name) pairs that hold *parent-process* trace handles;
#: worker code outside the sanctioned channel module must not touch them.
PARENT_HANDLE_GLOBALS = frozenset({
    ("repro.obs.trace", "_ACTIVE"),
    ("repro.obs.trace", "_RECORDERS"),
})

#: The sidecar-channel implementation itself: allowed to manage the
#: handles it exists to isolate (``worker_recorder`` activates a private
#: per-process segment writer precisely so nothing else ever has to).
SANCTIONED_CHANNEL_MODULES = frozenset({"repro.obs.trace"})


def _annotation_atoms(node: ast.expr) -> Iterable[str]:
    """Leaf type names mentioned by an annotation expression."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant):
        if node.value is None:
            yield "None"
        elif isinstance(node.value, str):
            # string annotation: parse and recurse
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                yield node.value
            else:
                yield from _annotation_atoms(parsed.body)
        elif node.value is Ellipsis:
            pass
        else:
            yield repr(node.value)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _annotation_atoms(node.left)
        yield from _annotation_atoms(node.right)
    elif isinstance(node, ast.Subscript):
        yield from _annotation_atoms(node.value)
        yield from _annotation_atoms(node.slice)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _annotation_atoms(element)
    elif isinstance(node, ast.Index):  # pragma: no cover - py<3.9 AST
        yield from _annotation_atoms(node.value)
    else:
        yield ast.dump(node)


def _handle_globals(tree: ast.Module) -> dict[str, str]:
    """Module-level names bound to live handles, with the ctor name."""
    handles: dict[str, str] = {}
    for name, value in module_globals(tree).items():
        if not isinstance(value, ast.Call):
            continue
        ctor = dotted_name(value.func)
        if ctor is not None and ctor.rsplit(".", 1)[-1] in \
                HANDLE_CONSTRUCTORS:
            handles[name] = ctor
    return handles


class WorkerBoundaryRule(Rule):
    rule_id = "RPR007"
    description = (
        "worker-boundary serialization safety: no lambdas/closures "
        "submitted to backends, spec-class fields statically "
        "pickle/JSON-safe, worker code free of ambient "
        "file/lock/parent-TraceRecorder handles"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return module_name_for(ctx.rel) is not None

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        yield from self._check_boundary_closures(ctx)
        yield from self._check_spec_fields(ctx)
        yield from self._check_ambient_handles(ctx)

    # ------------------------------------------------------------------
    # (a) lambdas / nested functions handed to dispatch calls
    # ------------------------------------------------------------------
    def _check_boundary_closures(
            self, ctx: FileContext) -> Iterable[Violation]:
        module_level = {name for name, _ in module_functions(ctx.tree)}
        # outermost functions: a nested one's calls are judged (once)
        # with its encloser's, which also sees its nested definitions
        for node in import_time_nodes(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = {
                inner.name
                for inner in ast.walk(node)
                if isinstance(inner, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                and inner is not node
            }
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                attr = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name)
                        else None)
                if attr not in BOUNDARY_CALL_ATTRS:
                    continue
                for arg in (*call.args,
                            *(kw.value for kw in call.keywords)):
                    if isinstance(arg, ast.Lambda):
                        yield self.violation(
                            ctx, arg,
                            f"lambda passed to {attr}() cannot cross "
                            f"the worker boundary (unpicklable); hoist "
                            f"it to a module-level function",
                        )
                    elif (isinstance(arg, ast.Name)
                          and arg.id in nested
                          and arg.id not in module_level):
                        yield self.violation(
                            ctx, arg,
                            f"locally defined function {arg.id!r} "
                            f"passed to {attr}() closes over its "
                            f"enclosing frame and cannot cross the "
                            f"worker boundary; hoist it to module "
                            f"level and pass its state as arguments",
                        )

    # ------------------------------------------------------------------
    # (b) spec-class field annotations
    # ------------------------------------------------------------------
    def _check_spec_fields(self, ctx: FileContext) -> Iterable[Violation]:
        if not ctx.in_dir("src/repro/exec/"):
            return
        for class_node in ctx.tree.body:
            if not (isinstance(class_node, ast.ClassDef)
                    and class_node.name in SPEC_CLASSES):
                continue
            for stmt in class_node.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                bad = sorted(
                    atom for atom in _annotation_atoms(stmt.annotation)
                    if atom not in SERIALIZABLE_ANNOTATIONS
                )
                if bad:
                    yield self.violation(
                        ctx, stmt,
                        f"{class_node.name}.{stmt.target.id} is "
                        f"annotated with non-serializable type(s) "
                        f"{', '.join(bad)}; spec fields cross the "
                        f"worker boundary by value and must be plain "
                        f"data or a pinned-round-trip project "
                        f"dataclass (extend SERIALIZABLE_ANNOTATIONS "
                        f"only with a reviewed JSON round trip)",
                    )

    # ------------------------------------------------------------------
    # (c) ambient handles read by worker code
    # ------------------------------------------------------------------
    def _check_ambient_handles(
            self, ctx: FileContext) -> Iterable[Violation]:
        module = module_name_for(ctx.rel)
        if (not ctx.in_dir(*WORKER_PATHS)
                or module in SANCTIONED_CHANNEL_MODULES):
            return
        own_handles = _handle_globals(ctx.tree)
        symbols = imported_symbols(ctx)
        for qualname, fn in module_functions(ctx.tree):
            flagged: set[str] = set()
            for node in ast.walk(fn):
                if not isinstance(node, ast.Name) or node.id in flagged:
                    continue
                if node.id in own_handles:
                    kind, where = own_handles[node.id], module
                elif symbols.get(node.id) in PARENT_HANDLE_GLOBALS:
                    kind = "parent TraceRecorder registry"
                    where = symbols[node.id][0]
                else:
                    continue
                flagged.add(node.id)
                yield self.violation(
                    ctx, node,
                    f"worker function {qualname}() captures ambient "
                    f"handle {node.id!r} ({kind}, module {where}): fork "
                    f"shares it with the parent and spawn workers never "
                    f"have it; take the resource as an argument or "
                    f"route through the worker_recorder sidecar channel",
                )
