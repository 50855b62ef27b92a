"""RPR009 — seed dataflow: RNG seeds must derive from parameters.

RPR001 polices *construction* (no unseeded generators, no global numpy
API); this rule polices the *seed expression itself* in the physics
core — ``sim/`` and ``exec/sampling.py``, the code whose outputs the
paper's figures are built from.  The seed argument of the sampler's
counter-based ``mix(seed, shot, stream, counter)``, and every argument
to a ``default_rng``/``Random``/``RandomState`` constructor there, must
be **derived**: its dataflow (intraprocedural, flow-insensitive) must
root in function parameters — ``seed``, ``shot_index``, ``spec.seed``,
``(seed, shot_index)`` tuples, arithmetic thereon — because that is
what makes shot streams reproducible *and* shard-stable: the engine can
re-derive the exact draws of shot *k* on any worker from
``(spec.seed, k)`` alone.  Only ``mix``'s seed is audited: its stream
numbers are constants by design.

Violations:

* a **constant** seed (``default_rng(1234)``): every call site shares
  one stream, so sharding silently correlates shots;
* any **ambient** leaf (module global, imported symbol, anything not
  rooted in a parameter): the stream depends on process state that
  another worker process need not share;
* **module-level** RNG construction: the generator's stream position
  becomes import-order state.

Unseeded calls (``default_rng()``) are RPR001's finding, not ours — a
missing seed expression is a determinism bug before it is a dataflow
bug, and one finding per defect keeps suppressions honest.

Names are classified ``derived`` / ``constant`` / ``ambient`` by a
small fixpoint over assignments; ambient dominates derived dominates
constant (flow-insensitive, biased to over-report ambient).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.core import (
    FileContext,
    Rule,
    Violation,
    canonical_call_name,
    import_aliases,
    import_time_nodes,
    module_functions,
)

#: Terminal names of RNG constructors whose seed argument we audit.
RNG_CONSTRUCTORS = frozenset({"default_rng", "Random", "RandomState"})

#: Terminal name of the counter-based draw function, whose first
#: positional (or ``seed=``) argument is the only one audited.
COUNTER_MIX = "mix"

DERIVED = "derived"
CONSTANT = "constant"
AMBIENT = "ambient"


def _name_leaves(expr: ast.expr) -> Iterator[str]:
    """Root names the value of *expr* depends on.

    An attribute chain contributes its head (``spec.seed`` -> ``spec``);
    a call contributes its arguments but not its (dotted) callee name.
    """
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            if not isinstance(node.func, (ast.Name, ast.Attribute)):
                stack.append(node.func)
            stack.extend(node.args)
            stack.extend(kw.value for kw in node.keywords)
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            head: ast.expr = node
            while isinstance(head, ast.Attribute):
                head = head.value
            if isinstance(head, ast.Name):
                yield head.id
            else:
                stack.append(head)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _parameters(fn: ast.AST) -> set[str]:
    """Parameter names of *fn* and of every function nested in it."""
    params: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            params.add(arg.arg)
        if args.vararg is not None:
            params.add(args.vararg.arg)
        if args.kwarg is not None:
            params.add(args.kwarg.arg)
    return params


class _Dataflow:
    """Flow-insensitive name classification inside one function."""

    def __init__(self, fn: ast.AST) -> None:
        self.derived: set[str] = _parameters(fn)
        self.constant: set[str] = set()
        # everything else (module globals, imports, unknowns) is ambient
        assignments: list[tuple[ast.expr, ast.expr]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assignments.append((target, node.value))
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                if node.value is not None:
                    assignments.append((node.target, node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                assignments.append((node.target, node.iter))
        # fixpoint: chained assignments (a = seed; b = a) settle in
        # bounded passes because names only move upward in the lattice
        # constant -> derived (ambient names simply never enter a set)
        for _ in range(len(assignments) + 1):
            changed = False
            for target, value in assignments:
                category = self.classify(value)
                if category == AMBIENT:
                    continue
                dest = (self.derived if category == DERIVED
                        else self.constant)
                for name in self._target_names(target):
                    if name not in dest:
                        dest.add(name)
                        changed = True
            if not changed:
                break
        # a name seen both ways counts as derived (param-rooted on at
        # least one path), never ambient
        self.constant -= self.derived

    @staticmethod
    def _target_names(target: ast.expr) -> Iterator[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from _Dataflow._target_names(element)
        elif isinstance(target, ast.Starred):
            yield from _Dataflow._target_names(target.value)

    def classify(self, expr: ast.expr) -> str:
        leaves = list(_name_leaves(expr))
        if any(leaf not in self.derived and leaf not in self.constant
               for leaf in leaves):
            return AMBIENT
        if any(leaf in self.derived for leaf in leaves):
            return DERIVED
        return CONSTANT


class SeedDataflowRule(Rule):
    rule_id = "RPR009"
    description = (
        "seed dataflow: every mix/default_rng/Random seed argument in "
        "sim/ and exec/sampling.py must derive from function parameters "
        "(e.g. (seed, shot_index)), never from constants or ambient "
        "module state"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_dir("src/repro/sim/")
                or ctx.is_file("src/repro/exec/sampling.py"))

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        aliases = import_aliases(ctx.tree)
        for call, callee, _ in _rng_calls(
                import_time_nodes(ctx.tree), aliases):
            yield self.violation(
                ctx, call,
                f"module-level {callee}(...) makes the stream position "
                f"import-order state; construct generators inside the "
                f"function that uses them, seeded from its parameters",
            )
        for qualname, fn in module_functions(ctx.tree):
            rng_calls = _rng_calls(ast.walk(fn), aliases)
            if rng_calls:
                yield from self._check_function(ctx, qualname, fn,
                                                rng_calls)

    def _check_function(self, ctx: FileContext, qualname: str,
                        fn: ast.AST, rng_calls: list) -> Iterable[Violation]:
        flow = _Dataflow(fn)
        for call, callee, seed_args in rng_calls:
            if not seed_args:
                continue  # unseeded construction is RPR001's finding
            categories = [flow.classify(arg) for arg in seed_args]
            if AMBIENT in categories:
                yield self.violation(
                    ctx, call,
                    f"{callee}(...) in {qualname}() is seeded from "
                    f"ambient state (a module global or import, not a "
                    f"function parameter), so the stream follows "
                    f"process state instead of the spec — derive the "
                    f"seed from parameters, e.g. (seed, shot_index)",
                )
            elif DERIVED not in categories:
                yield self.violation(
                    ctx, call,
                    f"{callee}(...) in {qualname}() uses a "
                    f"constant seed: every call site shares one "
                    f"stream, so sharded shots silently correlate; "
                    f"derive the seed from function parameters, e.g. "
                    f"(seed, shot_index)",
                )


def _rng_calls(nodes: Iterable[ast.AST], aliases: dict[str, str]) -> list:
    """``(call, callee, seed arguments)`` for each audited RNG call."""
    found = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        callee = canonical_call_name(node, aliases)
        if callee is None:
            continue
        terminal = callee.rsplit(".", 1)[-1]
        if terminal in RNG_CONSTRUCTORS:
            found.append((node, callee,
                          [*node.args, *(kw.value for kw in node.keywords)]))
        elif terminal == COUNTER_MIX:
            found.append((node, callee, [
                *node.args[:1],
                *(kw.value for kw in node.keywords if kw.arg == "seed"),
            ]))
    return found
