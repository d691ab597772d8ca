"""repro.lint — AST-based invariant linter for the CAGRA reproduction.

Enforces the repo-specific contracts that generic linters cannot know
about (see ``docs/static_analysis.md`` for the full catalogue):

* **RL001** ``PARENT_FLAG``-carrying ids must be ``& INDEX_MASK``-ed
  before being used as indexes;
* **RL002** node-id arrays need explicit integer dtypes;
* **RL003** stochastic code takes an explicit ``numpy.random.Generator``;
* **RL004** distance math in ``core/`` / ``baselines/`` flows through the
  counted :mod:`repro.core.distances` wrappers;
* **RL005** no exact float equality on distances, no ``__all__`` drift;
* **RL006** tombstone / mask / liveness arrays (the streaming layer's
  concurrent-visibility state) change only under the owning class's
  lock — guarded by name, not by observed convention;
* **RL007** ``@hot_path`` traversal functions stay array-parallel: no
  Python ``for`` loop over a query-scaling iterable on the search hot
  path (fixed-size lane/probe loops are fine);
* **RL101–RL104** lock discipline: guarded attributes accessed without
  their lock, unlocked mutation in thread targets, fork-unsafety in
  pool task bodies, blocking calls while holding a lock;
* **RL201–RL202** AnnIndex contract: ``search`` results flow through
  ``SearchResult`` / ``normalize_results``, int32 ids and no float
  ``==`` on the result path;
* **RL301/RL302** (runtime, opt-in): the thread-sanitizer-lite in
  :mod:`repro.lint.sanitizer` reports lock-order cycles (potential
  deadlocks) and unsynchronized concurrent attribute writes.

Run it via ``repro-cagra lint [--format json] [--strict] [--sanitize]``
or programmatically through :func:`lint_paths` / :func:`lint_source`.
"""

from repro.lint.engine import LintResult, default_root, lint_paths, lint_source
from repro.lint.report import Violation, format_json, format_text
from repro.lint.rules import RULES
from repro.lint.sanitizer import ThreadSanitizer, sanitize_enabled

__all__ = [
    "LintResult",
    "RULES",
    "ThreadSanitizer",
    "Violation",
    "default_root",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "sanitize_enabled",
]
