"""Rule registry for the repro invariant linter.

A rule module exposes either the single-rule interface (``RULE_ID``,
``TITLE``, ``check(ctx: FileContext) -> list[Violation]``) or the
multi-rule interface (``CHECKERS``, a sequence of ``(rule_id, title,
check)`` tuples).  Every rule sees one file at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.lint.report import Violation
from repro.lint.rules import (
    accounting,
    api,
    concurrency,
    contracts,
    determinism,
    dtypes,
    flags,
    streaming,
    traversal,
)

__all__ = ["RULES", "RuleChecker"]

_MODULES = (
    flags, dtypes, determinism, accounting, api, streaming, traversal,
    concurrency, contracts,
)


@dataclass(frozen=True)
class RuleChecker:
    """One registered rule: id, short title, and its check function."""

    rule_id: str
    title: str
    check: Callable[..., list[Violation]]


def _file_checkers(module) -> list[RuleChecker]:
    if hasattr(module, "CHECKERS"):
        return [RuleChecker(*entry) for entry in module.CHECKERS]
    return [RuleChecker(module.RULE_ID, module.TITLE, module.check)]


#: Rule id → per-file checker, in rule-id order.
RULES: dict[str, RuleChecker] = {
    checker.rule_id: checker
    for module in _MODULES
    for checker in _file_checkers(module)
}
RULES = dict(sorted(RULES.items()))
