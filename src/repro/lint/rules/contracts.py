"""RL201–RL202 — AnnIndex contract rules.

PR 5 unified every index family behind the ``AnnIndex`` protocol; these
rules keep implementations from drifting off that contract:

* **RL201 — search results must flow through the contract.**  Every
  ``search`` implementation on an adapter class (a class with a class
  -level ``kind`` attribute, or named/based on ``AnnIndex``/``Adapter``)
  under ``api/`` or ``baselines/`` must return ``SearchResult`` objects
  and route ids/distances through :func:`repro.api.normalize_results`
  (which enforces int32 ids, float32 distances, and trailing-only
  sentinel padding).  Native baseline classes keep their paper-figure
  tuple signatures and are exempt.
* **RL202 — no non-int32 ids or float ``==`` on the result path.**
  Inside a qualifying ``search``: feeding ``SearchResult(indices=...)``
  an array built with a non-int32 integer dtype that never passed
  through ``normalize_results``, or comparing against float literals
  with ``==`` / ``!=``, silently corrupts ids on 2^31+ datasets or
  breaks sentinel handling.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, dotted_name
from repro.lint.report import Violation

__all__ = ["CHECKERS"]

_NON_INT32_DTYPES = {
    "int64", "uint64", "int16", "uint16", "int8", "uint8", "uint32",
}


def _violation(ctx: FileContext, node: ast.AST, rule: str, message: str) -> Violation:
    return Violation(
        path=ctx.path,
        line=node.lineno,
        col=node.col_offset,
        rule=rule,
        message=message,
    )


# ----------------------------------------------------------------------
# qualifying search implementations
# ----------------------------------------------------------------------
def _is_adapter_class(cls: ast.ClassDef) -> bool:
    if "AnnIndex" in cls.name:
        return True
    for base in cls.bases:
        base_name = dotted_name(base).split(".")[-1]
        if "AnnIndex" in base_name or "Adapter" in base_name:
            return True
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "kind":
                    return True
    return False


def _iter_search_methods(ctx: FileContext):
    if not ctx.is_under("api", "baselines"):
        return
    for cls in ast.walk(ctx.tree):
        if not (isinstance(cls, ast.ClassDef) and _is_adapter_class(cls)):
            continue
        for method in cls.body:
            if (
                isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name == "search"
            ):
                yield cls, method


def _walk_own(fn: ast.AST):
    """Pre-order, source-ordered walk that skips nested functions —
    RL202's taint tracking relies on seeing assignments in order."""

    def rec(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield child
            yield from rec(child)

    yield from rec(fn)


def _calls_symbol(fn: ast.AST, symbol: str) -> bool:
    for node in _walk_own(fn):
        if (
            isinstance(node, ast.Call)
            and dotted_name(node.func).split(".")[-1] == symbol
        ):
            return True
    return False


# ----------------------------------------------------------------------
# RL201
# ----------------------------------------------------------------------
def _check_rl201(ctx: FileContext) -> list[Violation]:
    violations: list[Violation] = []
    for cls, method in _iter_search_methods(ctx):
        returns = [
            node
            for node in _walk_own(method)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        if not returns:
            continue  # abstract / raise-only base implementations
        constructs_result = False
        for node in returns:
            callee = (
                dotted_name(node.value.func).split(".")[-1]
                if isinstance(node.value, ast.Call)
                else ""
            )
            if callee == "SearchResult":
                constructs_result = True
            elif not (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr.startswith("search")
            ):  # delegation to another search implementation is fine
                violations.append(_violation(
                    ctx, node, "RL201",
                    f"'{cls.name}.search' must return SearchResult objects "
                    "(AnnIndex contract), not raw tuples/arrays",
                ))
        if constructs_result and not _calls_symbol(method, "normalize_results"):
            violations.append(_violation(
                ctx, method, "RL201",
                f"'{cls.name}.search' constructs SearchResult without "
                "routing ids/distances through normalize_results()",
            ))
    return violations


# ----------------------------------------------------------------------
# RL202
# ----------------------------------------------------------------------
def _mentions_bad_dtype(expr: ast.expr) -> str | None:
    """A non-int32 integer dtype explicitly applied inside ``expr``."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            dtype = dotted_name(node.args[0]).split(".")[-1]
            if dtype in _NON_INT32_DTYPES:
                return dtype
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype = dotted_name(kw.value).split(".")[-1]
                if dtype in _NON_INT32_DTYPES:
                    return dtype
    return None


def _names_in(expr: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _check_rl202(ctx: FileContext) -> list[Violation]:
    violations: list[Violation] = []
    for cls, method in _iter_search_methods(ctx):
        sanctioned: set[str] = set()
        tainted: dict[str, str] = {}  # name -> offending dtype
        for node in _walk_own(method):
            if isinstance(node, ast.Assign):
                from_normalize = (
                    isinstance(node.value, ast.Call)
                    and dotted_name(node.value.func).split(".")[-1]
                    == "normalize_results"
                )
                bad = _mentions_bad_dtype(node.value)
                for target in node.targets:
                    for name in _names_in(target):
                        if from_normalize:
                            sanctioned.add(name)
                            tainted.pop(name, None)
                        elif bad is not None:
                            tainted[name] = bad
                        else:
                            tainted.pop(name, None)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                ) and any(
                    isinstance(o, ast.Constant) and isinstance(o.value, float)
                    for o in operands
                ):
                    violations.append(_violation(
                        ctx, node, "RL202",
                        f"float equality comparison on the result path of "
                        f"'{cls.name}.search'; use np.isclose/np.isinf",
                    ))
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func).split(".")[-1]
                if callee != "SearchResult":
                    continue
                indices_arg = None
                for kw in node.keywords:
                    if kw.arg == "indices":
                        indices_arg = kw.value
                if indices_arg is None and node.args:
                    indices_arg = node.args[0]
                if indices_arg is None:
                    continue
                names = _names_in(indices_arg)
                bad_names = sorted(names & set(tainted))
                inline_bad = _mentions_bad_dtype(indices_arg)
                if bad_names and not (names & sanctioned):
                    violations.append(_violation(
                        ctx, indices_arg, "RL202",
                        f"'{cls.name}.search' feeds SearchResult ids built "
                        f"as {tainted[bad_names[0]]} ('{bad_names[0]}') "
                        "without normalize_results (ids must be int32)",
                    ))
                elif inline_bad is not None:
                    violations.append(_violation(
                        ctx, indices_arg, "RL202",
                        f"'{cls.name}.search' feeds SearchResult ids built "
                        f"as {inline_bad} (ids must be int32)",
                    ))
    return violations


CHECKERS = (
    ("RL201", "search results bypass SearchResult/normalize_results", _check_rl201),
    ("RL202", "non-int32 ids or float == on the result path", _check_rl202),
)
