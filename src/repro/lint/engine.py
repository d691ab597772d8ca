"""AST walker and per-file rule driver for the repro invariant linter.

The linter enforces repo-specific contracts that generic tools cannot know
about (see ``docs/static_analysis.md``): the ``PARENT_FLAG`` MSB masking
discipline, explicit node-id dtypes, Generator-based determinism, counted
distance accounting, and public-API hygiene.  Each rule lives in
:mod:`repro.lint.rules`; this module parses files, runs every rule, and
filters out violations covered by an in-line waiver.

Waiver syntax (see docs)::

    flagged_sum = int(flagged.sum())  # repro-lint: disable=RL001 — reason
    # repro-lint: disable-file=RL004 — whole-file waiver

A line waiver applies to violations reported on its own physical line or
on the line directly below it (so a waiver comment can sit above a long
statement).  ``disable-file`` waives the rule for the whole file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.report import Violation

__all__ = [
    "FileContext",
    "LintResult",
    "build_context",
    "default_root",
    "dotted_name",
    "iter_python_files",
    "iter_scopes",
    "lint_file",
    "lint_paths",
    "lint_source",
    "mentions_symbol",
    "parse_waivers",
    "scope_statements",
]

_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?=(?P<rules>RL\d{3}(?:\s*,\s*RL\d{3})*)"
)


@dataclass
class FileContext:
    """Everything a rule needs to know about the file under analysis."""

    path: str
    source: str
    tree: ast.Module
    line_waivers: dict[int, set[str]] = field(default_factory=dict)
    file_waivers: set[str] = field(default_factory=set)

    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()

    def is_under(self, *parts: str) -> bool:
        """True if any of ``parts`` appears as a path component."""
        components = self.posix_path.split("/")
        return any(part in components for part in parts)


def build_context(source: str, path: str = "<string>") -> FileContext:
    """Parse one source blob into a :class:`FileContext` with its waivers."""
    tree = ast.parse(source, filename=path)
    line_waivers, file_waivers = parse_waivers(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        line_waivers=line_waivers,
        file_waivers=file_waivers,
    )


@dataclass
class LintResult:
    """Aggregate outcome of linting a set of files."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors


# ----------------------------------------------------------------------
# shared AST helpers used by the rule modules
# ----------------------------------------------------------------------
def mentions_symbol(node: ast.AST, symbol: str) -> bool:
    """True if ``node`` references ``symbol`` as a bare name or attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == symbol:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == symbol:
            return True
    return False


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield (scope node, body) for the module and every (nested) function.

    Each function body is yielded exactly once; statements inside a nested
    function belong to the nested scope only.
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def scope_statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """Flatten a scope's statements (if/for/while/try bodies included) in
    source order, excluding statements of nested function/class scopes."""
    out: list[ast.stmt] = []

    def visit(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            out.append(stmt)
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, name, None)
                if isinstance(inner, list):
                    visit([s for s in inner if isinstance(s, ast.stmt)])
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body)

    visit(body)
    out.sort(key=lambda s: (s.lineno, s.col_offset))
    return out


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
def parse_waivers(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Extract line-level and file-level waivers from source comments.

    Returns ``(line_waivers, file_waivers)`` where ``line_waivers`` maps a
    1-based line number to the rule ids waived on that line.
    """
    line_waivers: dict[int, set[str]] = {}
    file_waivers: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if not match:
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        if match.group("scope"):
            file_waivers |= rules
        else:
            line_waivers.setdefault(lineno, set()).update(rules)
    return line_waivers, file_waivers


def _is_waived(
    violation: Violation,
    line_waivers: dict[int, set[str]],
    file_waivers: set[str],
) -> bool:
    if violation.rule in file_waivers:
        return True
    for lineno in (violation.line, violation.line - 1):
        if violation.rule in line_waivers.get(lineno, set()):
            return True
    return False


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one in-memory source blob; raises ``SyntaxError`` on bad input.

    Runs every rule over the file and drops the violations its waivers
    cover.
    """
    from repro.lint.rules import RULES

    ctx = build_context(source, path)
    violations: list[Violation] = []
    for checker in RULES.values():
        violations.extend(checker.check(ctx))
    return [
        v for v in violations if not _is_waived(v, ctx.line_waivers, ctx.file_waivers)
    ]


def lint_file(path: str | Path, result: LintResult) -> None:
    """Lint one file on disk into ``result``."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
        violations = lint_source(source, str(path))
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        result.parse_errors.append(f"{path}: {exc}")
        return
    result.files_checked += 1
    result.violations.extend(violations)


def iter_python_files(root: str | Path) -> Iterator[Path]:
    """Yield ``.py`` files under ``root`` (or ``root`` itself), skipping
    caches and hidden directories."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if any(part.startswith(".") or part == "__pycache__" for part in path.parts):
            continue
        yield path


def default_root() -> Path:
    """The source tree to lint when no paths are given: the directory
    containing the installed ``repro`` package (i.e. ``src/``)."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def lint_paths(paths: Iterable[str | Path] | None = None) -> LintResult:
    """Lint files/directories (default: the whole ``repro`` source tree)."""
    result = LintResult()
    roots = list(paths) if paths else [default_root()]
    for root in roots:
        if not Path(root).exists():
            result.parse_errors.append(f"{root}: no such file or directory")
            continue
        for path in iter_python_files(root):
            lint_file(path, result)
    return result
