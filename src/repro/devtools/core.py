"""Rule engine of the repro invariant linter.

The linter is a small static-analysis framework: every file is parsed
once into an :mod:`ast` tree plus a comment stream, wrapped in a
:class:`FileContext`, and handed to each enabled :class:`Rule`; after
the last file, each rule's :meth:`Rule.finish` reports what needs every
file at once (RPR006's import-cycle ban).  Rules never import or
execute the code they inspect — everything is pure AST and token
analysis, so linting a file with missing optional dependencies (or
deliberately broken corpus code) is safe.

Two comment directives drive the engine:

``# repro-lint: disable=RPR001[,RPR002] -- <justification>``
    Suppresses the named rules on that line (or the line directly
    below, for comments placed above a long call).  The justification
    text after ``--`` is **required**: a disable without one is rejected
    — the original violation stays active and the malformed directive
    is reported as :data:`META_RULE`.

``# repro-lint: treat-as=<relative/path.py>``
    Overrides the project-relative path used for rule scoping.  This is
    how the self-test corpus under ``tests/lint_corpus/`` exercises
    path-scoped rules (e.g. a corpus file pretending to live in
    ``src/repro/analysis/``) without actually living there.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Rule id reserved for the linter's own hygiene findings: syntax errors
#: in scanned files, malformed suppressions, unknown rule ids in a
#: ``disable=`` list.  RPR000 findings can never be suppressed.
META_RULE = "RPR000"

#: Comment grammar: ``# repro-lint: disable=RPR001,RPR002 -- why``.
_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_DISABLE_RE = re.compile(
    r"disable=(?P<rules>[A-Z0-9,\s]+?)(?:\s+--\s*(?P<why>.+))?$"
)
_TREAT_AS_RE = re.compile(r"treat-as=(?P<path>\S+)$")

#: Directory names never descended into when expanding directory inputs.
#: ``lint_corpus`` holds deliberately-violating self-test fixtures; they
#: are linted only when named explicitly (as the corpus tests do).
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".venv", "node_modules", "lint_corpus"}
)

#: The code a pool worker executes: the paper's toolchain (devices,
#: circuits, compiler, noise, simulators), the engine's task side, and
#: the three ``repro.obs`` modules a traced or profiled job touches.
#: RPR007's ambient-handle check and RPR008 judge every function under
#: these paths; ``tests/test_lint.py`` checks the list against the files
#: ``_execute_chunk`` really executes.
WORKER_PATHS = (
    "src/repro/arch/",
    "src/repro/circuits/",
    "src/repro/compiler/",
    "src/repro/exec/",
    "src/repro/noise/",
    "src/repro/sim/",
    "src/repro/obs/trace.py",
    "src/repro/obs/profile.py",
    "src/repro/obs/jsonl.py",
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location and a human-readable message."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.suppressed:
            text += f"  [suppressed: {self.justification}]"
        return text

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``disable=`` directive attached to one source line."""

    line: int
    rules: tuple[str, ...]
    justification: str


@dataclass
class FileContext:
    """Everything a rule may inspect about one file.

    ``rel`` is the project-root-relative posix path used for all rule
    scoping decisions; a ``treat-as`` directive replaces it, so corpus
    files can impersonate any location in the tree.  ``real_rel`` always
    keeps the true path for reporting.
    """

    path: Path
    root: Path
    rel: str
    real_rel: str
    source: str
    tree: ast.Module
    suppressions: dict[int, list[Suppression]] = field(default_factory=dict)

    def in_dir(self, *prefixes: str) -> bool:
        """True when the scoping path lives under any of *prefixes*."""
        return any(self.rel.startswith(prefix) for prefix in prefixes)

    def is_file(self, *names: str) -> bool:
        """True when the scoping path is exactly one of *names*."""
        return self.rel in names

    def is_test_code(self) -> bool:
        """True for pytest files: ``tests/``, ``test_*.py``, conftest."""
        basename = self.rel.rsplit("/", 1)[-1]
        return (self.rel.startswith("tests/")
                or basename.startswith("test_")
                or basename == "conftest.py")


class Rule:
    """Base class every lint rule derives from.

    Subclasses set :attr:`rule_id` / :attr:`description`, narrow
    :meth:`applies_to` when they are path-scoped, and yield
    :class:`Violation` objects from :meth:`check` (one file) and, when a
    finding needs every file, from :meth:`finish`.
    """

    rule_id: str = ""
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    def finish(self) -> Iterable[Violation]:
        """Findings over every file :meth:`check` saw, once per run.

        A rule that keeps state across files resets it here, so one
        instance can serve several runs.
        """
        return ()

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        """A finding anchored at *node* (reported at the real path)."""
        return Violation(
            rule=self.rule_id,
            path=ctx.real_rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ----------------------------------------------------------------------
# Import-alias resolution shared by the rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted path they import.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time
    import time`` yields ``{"time": "time.time"}``.  Relative imports
    are skipped — the rules only canonicalise stdlib / third-party
    call sites.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                canonical = name.name if name.asname else local
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def canonical_call_name(node: ast.Call,
                        aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted name a call resolves to, if static.

    ``np.random.default_rng(7)`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``.  Calls on computed expressions (method
    calls on locals, subscripted lookups) return ``None``.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return name
    return f"{resolved}.{tail}" if tail else resolved


# ----------------------------------------------------------------------
# Module structure shared by RPR006-RPR009
# ----------------------------------------------------------------------
def module_name_for(rel: str) -> str | None:
    """The dotted module a project-relative path maps to, or ``None``.

    Only ``src/repro/**.py`` files are project modules; ``__init__.py``
    maps to its package.  Works on the *scoping* path, so a corpus file
    with ``treat-as=src/repro/exec/backends.py`` becomes that module.
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


def repro_imports(
    ctx: FileContext,
) -> Iterator[tuple[ast.Import | ast.ImportFrom, str]]:
    """``(statement, module)`` for every import of a ``repro`` module.

    Function-scoped imports are included; a relative ``from`` import is
    resolved against the module *ctx* scopes as, and ``import a, b``
    yields one pair per module.
    """
    module = module_name_for(ctx.rel) or ""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = module.split(".")
                # `from . import x` in a plain module resolves against
                # its package; __init__ modules resolve against themselves
                if not ctx.rel.endswith("/__init__.py"):
                    base = base[:-1]
                base = base[:len(base) - (node.level - 1)]
                source = ".".join(base + source.split(".")).rstrip(".")
            targets = [source]
        else:
            continue
        for target in targets:
            if target == "repro" or target.startswith("repro."):
                yield node, target


def imported_symbols(ctx: FileContext) -> dict[str, tuple[str, str]]:
    """Local name -> ``(module, name)`` for each ``from repro… import``."""
    symbols: dict[str, tuple[str, str]] = {}
    for node, source in repro_imports(ctx):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    symbols[alias.asname or alias.name] = (source,
                                                           alias.name)
    return symbols


def import_time_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that runs at import time: all but the bodies of
    functions and lambdas (whose own nodes are included)."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def module_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(qualname, node)`` for top-level functions and the methods of
    top-level classes; a nested function belongs to its encloser."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{member.name}", member


def module_globals(tree: ast.Module) -> dict[str, ast.expr]:
    """Module-level assignments: name -> value expression (last wins)."""
    values: dict[str, ast.expr] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    values[target.id] = stmt.value
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
              and isinstance(stmt.target, ast.Name)):
            values[stmt.target.id] = stmt.value
    return values


# ----------------------------------------------------------------------
# File loading: comments, directives, suppressions
# ----------------------------------------------------------------------
def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """(line, text) for every comment; tolerant of tokenize failures."""
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the ast.parse error path reports the file itself
    return comments


def parse_directives(
    source: str, real_rel: str,
) -> tuple[dict[int, list[Suppression]], str | None, list[Violation]]:
    """Extract suppressions and the treat-as override from comments.

    Returns ``(suppressions by line, treat_as path or None, meta
    violations)`` — malformed directives (no justification, unparsable
    body) become unsuppressable :data:`META_RULE` findings.
    """
    suppressions: dict[int, list[Suppression]] = {}
    treat_as: str | None = None
    meta: list[Violation] = []
    if "repro-lint" not in source:
        # fast path: most files carry no directive, and the substring
        # probe is ~100x cheaper than a full tokenize pass
        return suppressions, treat_as, meta
    for line, text in _comment_tokens(source):
        match = _DIRECTIVE_RE.search(text)
        if match is None:
            continue
        body = match.group("body").strip()
        treat = _TREAT_AS_RE.match(body)
        if treat is not None:
            treat_as = treat.group("path")
            continue
        disable = _DISABLE_RE.match(body)
        if disable is None:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message=f"unrecognised repro-lint directive {body!r} "
                        f"(expected 'disable=RULE[,RULE] -- justification' "
                        f"or 'treat-as=path')",
            ))
            continue
        rules = tuple(
            rule.strip() for rule in disable.group("rules").split(",")
            if rule.strip()
        )
        justification = (disable.group("why") or "").strip()
        if META_RULE in rules:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message=f"{META_RULE} (linter hygiene) cannot be suppressed",
            ))
            continue
        if not justification:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message="suppression needs a justification: "
                        "'# repro-lint: disable="
                        + ",".join(rules) + " -- <why this is safe>'",
            ))
            continue  # rejected: the original violation stays active
        suppressions.setdefault(line, []).append(
            Suppression(line=line, rules=rules, justification=justification)
        )
    return suppressions, treat_as, meta


def load_context(path: Path, root: Path) -> tuple[FileContext | None,
                                                  list[Violation]]:
    """Parse *path* into a :class:`FileContext` (or a syntax finding)."""
    try:
        real_rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        real_rel = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Violation(rule=META_RULE, path=real_rel, line=1,
                                col=1, message=f"unreadable file: {exc}")]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, [Violation(rule=META_RULE, path=real_rel,
                                line=exc.lineno or 1, col=1,
                                message=f"syntax error: {exc.msg}")]
    suppressions, treat_as, meta = parse_directives(source, real_rel)
    ctx = FileContext(path=path, root=root, rel=treat_as or real_rel,
                      real_rel=real_rel, source=source, tree=tree,
                      suppressions=suppressions)
    return ctx, meta


def apply_suppressions(ctx: FileContext,
                       violations: Iterable[Violation]) -> list[Violation]:
    """Mark findings covered by a same-line / previous-line disable."""
    out: list[Violation] = []
    for violation in violations:
        matched: Suppression | None = None
        for line in (violation.line, violation.line - 1):
            for suppression in ctx.suppressions.get(line, ()):
                if violation.rule in suppression.rules:
                    matched = suppression
                    break
            if matched is not None:
                break
        if matched is not None:
            violation = Violation(
                rule=violation.rule, path=violation.path,
                line=violation.line, col=violation.col,
                message=violation.message, suppressed=True,
                justification=matched.justification,
            )
        out.append(violation)
    return out


# ----------------------------------------------------------------------
# Running a rule set over a path set
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run: every finding plus scan bookkeeping.

    ``rule_seconds`` is wall time per rule id; ``file_counts`` is
    per-file active/suppressed totals.  Both feed the JSON ``profile``
    section — the report stays byte-deterministic *except* for the
    timing values.
    """

    violations: list[Violation] = field(default_factory=list)
    files_scanned: int = 0
    rules: tuple[str, ...] = ()
    rule_seconds: dict[str, float] = field(default_factory=dict)
    file_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def active(self) -> list[Violation]:
        """Findings that actually fail the run (not suppressed)."""
        return [v for v in self.violations if not v.suppressed]

    @property
    def suppressed(self) -> list[Violation]:
        return [v for v in self.violations if v.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def to_json(self) -> dict:
        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "active": len(self.active),
            "suppressed": len(self.suppressed),
            "violations": [v.to_json() for v in self.violations],
            "profile": {
                "rule_seconds": {
                    rule: round(seconds, 6)
                    for rule, seconds in sorted(self.rule_seconds.items())
                },
                "files": {
                    path: counts
                    for path, counts in sorted(self.file_counts.items())
                },
            },
        }


def find_project_root(start: Path) -> Path:
    """Walk up from *start* to the checkout root (``src/repro`` marker)."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if ((candidate / "src" / "repro").is_dir()
                or (candidate / ".git").exists()):
            return candidate
    return probe


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand file/directory inputs into the python files to lint.

    Directories are walked recursively, skipping :data:`SKIP_DIR_NAMES`;
    a path given explicitly as a file is always included (that is how
    the self-test corpus gets linted despite living in a skipped
    directory).  Missing paths raise ``FileNotFoundError``.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in SKIP_DIR_NAMES for part in candidate.parts):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    files.append(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def run_lint(paths: Sequence[str | Path], *,
             rules: Sequence[Rule] | None = None,
             select: Sequence[str] | None = None,
             ignore: Sequence[str] | None = None,
             root: str | Path | None = None) -> LintReport:
    """Lint *paths* with the given (or registered) rule set.

    ``select`` keeps only the named rule ids, ``ignore`` drops the named
    ones; :data:`META_RULE` hygiene findings are always reported.
    Unknown ids in either list raise ``ValueError`` so a typo in CI
    cannot silently disable a gate.  Findings from :meth:`Rule.finish`
    route through the suppression directives of the file they are
    anchored in, exactly like per-file findings.
    """
    from repro.devtools.rules import all_rules

    chosen = list(rules) if rules is not None else all_rules()
    known = {rule.rule_id for rule in chosen} | {META_RULE}
    for requested in (*(select or ()), *(ignore or ())):
        if requested not in known:
            raise ValueError(
                f"unknown rule id {requested!r}; known: "
                + ", ".join(sorted(known))
            )
    if select:
        chosen = [rule for rule in chosen if rule.rule_id in set(select)]
    if ignore:
        chosen = [rule for rule in chosen if rule.rule_id not in set(ignore)]

    report = LintReport(rules=tuple(rule.rule_id for rule in chosen))
    timings = {rule.rule_id: 0.0 for rule in chosen}
    files = discover_files(paths)
    anchor = files[0] if files else Path.cwd()
    resolved_root = (Path(root) if root is not None
                     else find_project_root(anchor))
    contexts: dict[str, FileContext] = {}
    for path in files:
        ctx, meta = load_context(path, resolved_root)
        report.violations.extend(meta)  # never suppressable
        if ctx is None:
            continue
        report.files_scanned += 1
        contexts[ctx.real_rel] = ctx
        findings: list[Violation] = []
        for rule in chosen:
            if rule.applies_to(ctx):
                started = time.perf_counter()
                found = list(rule.check(ctx))
                timings[rule.rule_id] += time.perf_counter() - started
                findings.extend(found)
        report.violations.extend(apply_suppressions(ctx, findings))

    for rule in chosen:
        started = time.perf_counter()
        found = list(rule.finish())
        timings[rule.rule_id] += time.perf_counter() - started
        for violation in found:
            report.violations.extend(
                apply_suppressions(contexts[violation.path], [violation])
            )

    report.rule_seconds = timings
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    for violation in report.violations:
        entry = report.file_counts.setdefault(
            violation.path, {"active": 0, "suppressed": 0}
        )
        entry["suppressed" if violation.suppressed else "active"] += 1
    return report
