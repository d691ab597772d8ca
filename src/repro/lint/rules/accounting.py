"""RL004 — distance math in core/baselines must flow through counted wrappers.

Every simulated-time figure the reproduction emits is derived from the
``distance_computations`` counters in :class:`~repro.core.search.CostReport`
and the baselines' build/search stats.  A distance evaluated *inline*
(``np.linalg.norm``, ``((a - b) ** 2).sum()``, ``a @ b.T``, squared-diff
``einsum`` contractions) instead of through :mod:`repro.core.distances`
escapes that accounting and silently corrupts the gpusim timing model.

The rule applies to files under ``core/`` and ``baselines/`` — except
``distances.py`` itself, which is where the math is supposed to live — and
flags:

* ``np.linalg.norm(...)`` calls;
* the ``@`` (matmul) operator;
* ``(...).sum()`` / ``np.sum(...)`` over a squared difference
  (``(a - b) ** 2``);
* ``np.einsum`` contractions whose two operands share the same subscript
  string (the squared-distance / self-dot signature, e.g.
  ``"ij,ij->i"``).
"""

from __future__ import annotations

import ast
import re

from repro.lint.engine import FileContext, dotted_name
from repro.lint.report import Violation

__all__ = ["RULE_ID", "TITLE", "check"]

RULE_ID = "RL004"
TITLE = "inline distance math bypassing repro.core.distances counted wrappers"

_SELF_DOT_RE = re.compile(r"^\s*([a-zA-Z]+)\s*,\s*\1\s*->")


def _violation(ctx: FileContext, node: ast.AST, message: str) -> Violation:
    return Violation(
        path=ctx.path,
        line=node.lineno,
        col=node.col_offset,
        rule=RULE_ID,
        message=message,
    )


def _contains_squared_diff(node: ast.AST) -> bool:
    """True if the expression contains ``(a - b) ** 2``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Pow)
            and isinstance(sub.right, ast.Constant)
            and sub.right.value == 2
        ):
            for inner in ast.walk(sub.left):
                if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Sub):
                    return True
    return False


def check(ctx: FileContext) -> list[Violation]:
    if not ctx.is_under("core", "baselines"):
        return []
    if ctx.posix_path.endswith("/distances.py"):
        return []
    violations: list[Violation] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            violations.append(
                _violation(
                    ctx,
                    node,
                    "inline '@' matmul; route distance math through "
                    "repro.core.distances so CostReport counters stay faithful",
                )
            )
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("np.linalg.norm", "numpy.linalg.norm"):
                violations.append(
                    _violation(
                        ctx,
                        node,
                        "inline np.linalg.norm(); use repro.core.distances "
                        "(normalize_rows / distances_to_query) so the work "
                        "is counted",
                    )
                )
            elif dotted in ("np.einsum", "numpy.einsum"):
                if (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and _SELF_DOT_RE.match(node.args[0].value)
                ):
                    violations.append(
                        _violation(
                            ctx,
                            node,
                            f"inline squared-distance einsum "
                            f"({node.args[0].value!r}); use "
                            f"repro.core.distances.gathered_distances instead",
                        )
                    )
            elif (
                isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
            ) and _contains_squared_diff(node):
                violations.append(
                    _violation(
                        ctx,
                        node,
                        "inline '((a - b) ** 2).sum()' distance; use "
                        "repro.core.distances so the work is counted",
                    )
                )
    return violations
