"""Repository tooling commands: ``lint`` and ``report``."""

from __future__ import annotations

import json
import sys

__all__ = ["cmd_lint", "cmd_report"]


def cmd_lint(args) -> int:
    """Exit-code contract: 0 clean (or violations without ``--strict``),
    1 violations under ``--strict`` / any sanitizer report, 2 internal
    error (unreadable path, parse failure, crashed rule).  The report —
    including ``--format json`` — is emitted in every case."""
    from repro.lint import format_json, format_text, lint_paths

    if args.sanitize:
        return _run_sanitized(args)
    try:
        result = lint_paths(args.paths or None)
    except Exception as exc:  # crashed rule/engine: still honour --format
        if args.format == "json":
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}, indent=2))
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result.violations, result.files_checked,
                          result.parse_errors))
    else:
        print(format_text(result.violations, result.files_checked))
    for error in result.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    if result.parse_errors:
        return 2
    if args.strict and result.violations:
        return 1
    return 0


def _run_sanitized(args) -> int:
    """``lint --sanitize``: run pytest in-process under the
    thread-sanitizer-lite instrumentation and report RL301/RL302.

    Positional PATH arguments are forwarded to pytest.  Always strict:
    any potential-deadlock or tagged-race report exits 1; a failing or
    unrunnable test session exits 2 (the run proved nothing).
    """
    from repro.lint import format_json, format_text
    from repro.lint.sanitizer import ThreadSanitizer

    try:
        import pytest
    except ImportError:
        print("internal error: --sanitize needs pytest", file=sys.stderr)
        return 2
    sanitizer = ThreadSanitizer()
    with sanitizer:
        test_exit = pytest.main(["-q", *args.paths])
    violations = sanitizer.violations()
    if args.format == "json":
        print(format_json(violations, files_checked=0))
    else:
        print(format_text(violations, files_checked=0))
    if int(test_exit) != 0:
        print(f"internal error: pytest exited {int(test_exit)}", file=sys.stderr)
        return 2
    return 1 if violations else 0


def cmd_report(args) -> int:
    import glob
    import os

    pattern = os.path.join(args.results, "*.txt")
    files = sorted(glob.glob(pattern))
    if not files:
        print(f"no result files under {args.results!r}; "
              "run: pytest benchmarks/ --benchmark-only")
        return 1
    for path in files:
        print(f"===== {os.path.basename(path)[:-4]} =====")
        with open(path) as handle:
            print(handle.read())
    return 0
