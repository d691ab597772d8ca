"""RL101–RL104 — lock-discipline rules for the concurrent layers.

The serve scheduler, the parallel worker pools, and the resilience
breakers all share mutable state across threads; these rules learn each
class's locking convention from the code itself and flag departures:

* **RL101 — unguarded access to a lock-guarded attribute.**  A class
  that assigns a ``threading.Lock`` / ``RLock`` to an attribute in
  ``__init__`` declares a locking discipline.  Any attribute that is
  *written* under ``with self._lock`` somewhere is treated as
  lock-guarded; writes **or reads** of that attribute from other methods
  without the lock held are flagged (torn reads of swap-guarded state
  are as real a race as torn writes).  Methods whose name ends in
  ``_locked`` declare "caller holds the lock" and are analyzed as if
  every class lock were held (the streaming layer's helper convention).
* **RL102 — unlocked mutation of shared state in a thread target.**
  Functions handed to ``threading.Thread(target=...)``, submitted to a
  pool/executor, or registered via ``add_done_callback`` run on another
  thread; mutating a closure/global/argument container (``.append``,
  ``x[k] = v``, ``obj.attr = v``, ``setattr``) there without holding a
  lock is a data race.  ``self`` is exempt — method receivers are
  RL101's job.
* **RL103 — fork-unsafety in process-pool task bodies.**  A function
  submitted to a process pool runs in a forked child: ``os._exit``,
  acquiring locks, and touching module-level ``numpy.random.Generator``
  state there either kills the worker or silently shares RNG streams.
  The ``resilience`` package is exempt — its fault points *deliberately*
  crash workers to exercise recovery paths.
* **RL104 — blocking call while holding a lock (deadlock shape).**
  Inside any ``with <lock>`` body: acquiring another (or the same) lock,
  ``Future.result()`` without a timeout, ``queue.get()`` without a
  timeout, or joining a thread can deadlock against a peer that needs
  the held lock.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, dotted_name
from repro.lint.report import Violation

__all__ = ["CHECKERS"]

_LOCK_FACTORIES = {"Lock", "RLock", "threading.Lock", "threading.RLock"}
_CONTAINER_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "move_to_end",
}
_INIT_METHODS = {"__init__", "__new__", "__post_init__", "__del__"}
_POOLISH = ("pool", "executor")


def _violation(
    ctx: FileContext, node: ast.AST, rule: str, message: str
) -> Violation:
    return Violation(
        path=ctx.path,
        line=node.lineno,
        col=node.col_offset,
        rule=rule,
        message=message,
    )


def _is_self_attr(node: ast.expr, attr: str | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _lockish(node: ast.expr) -> bool:
    """Heuristic: does this with-item / receiver look like a lock?"""
    dotted = dotted_name(node)
    if not dotted:
        return False
    last = dotted.split(".")[-1].lower()
    return "lock" in last or "mutex" in last


def _own_exprs(stmt: ast.stmt):
    """The statement's own expression children (nested blocks excluded)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, (ast.stmt, ast.excepthandler)):
            continue
        yield child


def _iter_block(stmts, held, enter, leave, visit_stmt):
    """Drive a statement walk tracking the set of locks held.

    ``enter(with_stmt, held)`` returns the locks acquired by a ``with``;
    the body is walked with them added.  Nested function/class scopes are
    not descended into.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = enter(stmt, held)
            _iter_block(stmt.body, held | acquired, enter, leave, visit_stmt)
            if leave is not None:
                leave(stmt, held)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        visit_stmt(stmt, held)
        for name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, name, None)
            if isinstance(inner, list):
                _iter_block(
                    [s for s in inner if isinstance(s, ast.stmt)],
                    held, enter, leave, visit_stmt,
                )
        for handler in getattr(stmt, "handlers", []):
            _iter_block(handler.body, held, enter, leave, visit_stmt)


# ----------------------------------------------------------------------
# RL101 — lock-guarded attribute accessed without the lock
# ----------------------------------------------------------------------
def _caller_holds_lock(method: ast.AST) -> bool:
    """``*_locked`` methods declare that the caller holds the class lock."""
    return getattr(method, "name", "").endswith("_locked")


def _class_lock_attrs(cls: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for method in cls.body:
        if (
            isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and method.name == "__init__"
        ):
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and dotted_name(node.value.func) in _LOCK_FACTORIES
                ):
                    for target in node.targets:
                        if _is_self_attr(target):
                            locks.add(target.attr)
    return locks


def _self_attr_writes(target: ast.expr):
    """Yield ``(node, attr)`` for self-attribute stores inside a target."""
    if _is_self_attr(target):
        yield target, target.attr
    elif isinstance(target, ast.Subscript) and _is_self_attr(target.value):
        yield target.value, target.value.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _self_attr_writes(elt)
    elif isinstance(target, ast.Starred):
        yield from _self_attr_writes(target.value)


def _check_rl101(ctx: FileContext) -> list[Violation]:
    violations: list[Violation] = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _class_lock_attrs(cls)
        if not lock_attrs:
            continue
        # (attr, kind, held?, node) events across every non-init method
        events: list[tuple[str, str, bool, ast.AST]] = []

        def enter(with_stmt, held):
            return {
                item.context_expr.attr
                for item in with_stmt.items
                if isinstance(item.context_expr, ast.Attribute)
                and _is_self_attr(item.context_expr)
                and item.context_expr.attr in lock_attrs
            }

        def visit_stmt(stmt, held):
            is_held = bool(held)
            written: set[int] = set()
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                for node, attr in _self_attr_writes(target):
                    if attr not in lock_attrs:
                        events.append((attr, "write", is_held, node))
                    written.add(id(node))
            for root in _own_exprs(stmt):
                for node in ast.walk(root):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _CONTAINER_MUTATORS
                        and _is_self_attr(node.func.value)
                    ):
                        attr = node.func.value.attr
                        if attr not in lock_attrs:
                            events.append((attr, "mutate", is_held, node))
                        written.add(id(node.func.value))
                for node in ast.walk(root):
                    if (
                        _is_self_attr(node)
                        and isinstance(node.ctx, ast.Load)
                        and id(node) not in written
                        and node.attr not in lock_attrs
                    ):
                        events.append((node.attr, "read", is_held, node))

        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _INIT_METHODS:
                continue
            held0 = frozenset(lock_attrs) if _caller_holds_lock(method) else frozenset()
            _iter_block(method.body, held0, enter, None, visit_stmt)

        # Only *binding* writes (self.X = ...) establish the guarded set;
        # locked container mutation (self.X.clear()) does not, so read-mostly
        # attributes whose contents are cleaned up under a lock stay free.
        guarded = {attr for attr, kind, held, _ in events if kind == "write" and held}
        for attr, kind, held, node in events:
            if attr in guarded and not held:
                action = "read" if kind == "read" else "written"
                violations.append(_violation(
                    ctx, node, "RL101",
                    f"attribute '{attr}' of class '{cls.name}' is guarded by a "
                    f"lock elsewhere but {action} here without holding it",
                ))
    return violations


# ----------------------------------------------------------------------
# RL102 — unlocked shared-container mutation in thread targets
# ----------------------------------------------------------------------
def _callable_defs(tree: ast.Module) -> dict[str, ast.AST]:
    defs: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)
    return defs


def _thread_entry_names(tree: ast.Module) -> set[str]:
    """Names of functions handed to threads / executors / callbacks."""
    entries: set[str] = set()

    def callee_name(arg: ast.expr) -> str | None:
        if isinstance(arg, ast.Name):
            return arg.id
        if isinstance(arg, ast.Attribute):
            return arg.attr
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func_dotted = dotted_name(node.func)
        if func_dotted.split(".")[-1] == "Thread":
            for kw in node.keywords:
                if kw.arg == "target" and (name := callee_name(kw.value)):
                    entries.add(name)
        elif func_dotted.split(".")[-1] == "drive_schedule" and node.args:
            # repro.serve.loadgen's load driver runs ``send`` on client threads.
            if name := callee_name(node.args[0]):
                entries.add(name)
        elif isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value).lower()
            if node.func.attr == "submit" and any(p in receiver for p in _POOLISH):
                if node.args and (name := callee_name(node.args[0])):
                    entries.add(name)
            elif node.func.attr == "add_done_callback" and node.args:
                if name := callee_name(node.args[0]):
                    entries.add(name)
    return entries


def _bound_names(fn: ast.AST) -> set[str]:
    """Names assigned (hence local) anywhere inside ``fn``."""
    bound: set[str] = set()

    def bind_target(target: ast.expr) -> None:
        # Only plain names bind; ``x[k] = v`` / ``x.a = v`` *use* ``x``.
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind_target(elt)
        elif isinstance(target, ast.Starred):
            bind_target(target.value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            bind_target(node.target)
        elif isinstance(node, ast.For):
            bind_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind_target(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind_target(node.target)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def _check_rl102(ctx: FileContext) -> list[Violation]:
    defs = _callable_defs(ctx.tree)
    violations: list[Violation] = []
    for entry in sorted(_thread_entry_names(ctx.tree)):
        fn = defs.get(entry)
        if fn is None:
            continue
        local = _bound_names(fn) | {"self", "cls"}

        def shared_base(node: ast.expr) -> str | None:
            if isinstance(node, ast.Name) and node.id not in local:
                return node.id
            return None

        def enter(with_stmt, held):
            return {
                dotted_name(item.context_expr)
                for item in with_stmt.items
                if _lockish(item.context_expr)
            }

        def visit_stmt(stmt, held):
            if held:
                return
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                base = None
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = shared_base(target.value)
                if base:
                    violations.append(_violation(
                        ctx, target, "RL102",
                        f"thread target '{entry}' mutates shared object "
                        f"'{base}' without holding a lock",
                    ))
            for root in _own_exprs(stmt):
                for node in ast.walk(root):
                    if not isinstance(node, ast.Call):
                        continue
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in _CONTAINER_MUTATORS
                        and (base := shared_base(node.func.value))
                    ):
                        violations.append(_violation(
                            ctx, node, "RL102",
                            f"thread target '{entry}' mutates shared "
                            f"container '{base}' without holding a lock",
                        ))
                    elif (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "setattr"
                        and node.args
                        and (base := shared_base(node.args[0]))
                    ):
                        violations.append(_violation(
                            ctx, node, "RL102",
                            f"thread target '{entry}' setattr()s shared "
                            f"object '{base}' without holding a lock",
                        ))

        _iter_block(fn.body, frozenset(), enter, None, visit_stmt)
    return violations


# ----------------------------------------------------------------------
# RL103 — fork-unsafety in process-pool task bodies
# ----------------------------------------------------------------------
def _pool_task_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "map", "map_outcomes")
            and any(p in dotted_name(node.func.value).lower() for p in _POOLISH)
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Name):
                names.add(first.id)
            elif isinstance(first, ast.Attribute):
                names.add(first.attr)
    return names


def _module_rng_names(tree: ast.Module) -> set[str]:
    rngs: set[str] = set()
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and dotted_name(stmt.value.func).split(".")[-1] == "default_rng"
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    rngs.add(target.id)
    return rngs


def _check_rl103(ctx: FileContext) -> list[Violation]:
    # The resilience package's fault points crash and lock on purpose —
    # that is the sanctioned chaos machinery RL103 protects everyone from.
    if ctx.is_under("resilience"):
        return []
    defs = _callable_defs(ctx.tree)
    rngs = _module_rng_names(ctx.tree)
    violations: list[Violation] = []
    for task in sorted(_pool_task_names(ctx.tree)):
        fn = defs.get(task)
        if fn is None:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted == "os._exit":
                    violations.append(_violation(
                        ctx, node, "RL103",
                        f"os._exit() inside pool task '{task}' kills the "
                        "worker without cleanup (fork-unsafe)",
                    ))
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                    and _lockish(node.func.value)
                ):
                    violations.append(_violation(
                        ctx, node, "RL103",
                        f"lock acquired inside pool task '{task}': locks "
                        "are not inherited coherently across fork",
                    ))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _lockish(item.context_expr):
                        violations.append(_violation(
                            ctx, item.context_expr, "RL103",
                            f"lock acquired inside pool task '{task}': locks "
                            "are not inherited coherently across fork",
                        ))
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in rngs
            ):
                violations.append(_violation(
                    ctx, node, "RL103",
                    f"module-level Generator '{node.id}' used inside pool "
                    f"task '{task}': forked workers share the RNG stream",
                ))
    return violations


# ----------------------------------------------------------------------
# RL104 — blocking calls while holding a lock
# ----------------------------------------------------------------------
def _has_timeout(call: ast.Call) -> bool:
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    return len(call.args) >= 2  # queue.get(block, timeout) positional form


def _check_rl104(ctx: FileContext) -> list[Violation]:
    violations: list[Violation] = []

    def enter(with_stmt, held):
        acquired: set[str] = set()
        for item in with_stmt.items:
            if not _lockish(item.context_expr):
                continue
            name = dotted_name(item.context_expr)
            if held:
                holding = ", ".join(sorted(held))
                violations.append(_violation(
                    ctx, item.context_expr, "RL104",
                    f"acquires '{name}' while already holding "
                    f"'{holding}' (nested locks: deadlock shape)",
                ))
            acquired.add(name)
        return acquired

    def visit_stmt(stmt, held):
        if not held:
            return
        for root in _own_exprs(stmt):
            for node in ast.walk(root):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                receiver = dotted_name(node.func.value).lower()
                attr = node.func.attr
                holding = ", ".join(sorted(held))
                if attr == "result" and not _has_timeout(node):
                    violations.append(_violation(
                        ctx, node, "RL104",
                        f"Future.result() with no timeout while holding "
                        f"'{holding}' can block forever under the lock",
                    ))
                elif attr == "get" and "queue" in receiver and not _has_timeout(node):
                    violations.append(_violation(
                        ctx, node, "RL104",
                        f"queue.get() with no timeout while holding "
                        f"'{holding}' can block forever under the lock",
                    ))
                elif attr == "join" and "thread" in receiver:
                    violations.append(_violation(
                        ctx, node, "RL104",
                        f"thread join while holding '{holding}' deadlocks "
                        "if the joined thread needs the lock",
                    ))
                elif attr == "acquire" and _lockish(node.func.value):
                    violations.append(_violation(
                        ctx, node, "RL104",
                        f"acquires '{dotted_name(node.func.value)}' while "
                        f"holding '{holding}' (nested locks: deadlock shape)",
                    ))

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _iter_block(node.body, frozenset(), enter, None, visit_stmt)
    return violations


CHECKERS = (
    ("RL101", "lock-guarded attribute accessed without its lock", _check_rl101),
    ("RL102", "shared state mutated in a thread target without a lock", _check_rl102),
    ("RL103", "fork-unsafe operation in a process-pool task body", _check_rl103),
    ("RL104", "blocking call while holding a lock (deadlock shape)", _check_rl104),
)
