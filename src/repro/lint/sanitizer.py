"""Thread-sanitizer-lite: opt-in runtime lock-order and write-race tagging.

Static rules (RL101–RL104) see lock *shapes*; this module watches the
program actually run.  While a :class:`ThreadSanitizer` is enabled it

* wraps ``threading.Lock`` so every acquisition records a per-thread
  held-lock set and a global lock-*order* graph.  A cycle in that graph
  (thread A takes ``a`` then ``b``, thread B takes ``b`` then ``a``)
  is a **potential deadlock** even when the interleaving that hangs
  never happened in this run — reported as **RL301** with both
  acquisition sites;
* patches ``__setattr__`` on registered shared classes (by default
  ``ExecutorStats``, the ``MetricSet`` behind ``ServeStats`` /
  ``RouterStats`` snapshots, ``ResultCache`` and ``CircuitBreaker``) and
  applies an Eraser-style lockset intersection per ``(object, attribute)``: once a
  second thread writes an attribute, the set of locks common to every
  subsequent write must stay non-empty, or the writes are tagged as an
  **unsynchronized concurrent write** — **RL302**.

Reports use the same :class:`~repro.lint.report.Violation` record and
text/JSON formatting as the static rules, honour in-line waiver
comments at the reported site, and surface through two entry points:

* ``REPRO_SANITIZE=1 python -m pytest ...`` — a conftest session
  fixture enables the sanitizer for the whole run and fails the session
  on any report;
* ``repro-cagra lint --sanitize <test paths>`` — runs pytest in-process
  under the sanitizer and exits 1 on any report.

Known limits (by design, to stay dependency-free and fast): only
attribute *rebinding* is tagged (dict/list/Counter content mutation is
not traced), only ``threading.Lock`` (not ``RLock``) is wrapped, and
code that imported ``Lock`` by value before :meth:`enable` keeps the
unwrapped factory.
"""

from __future__ import annotations

import os
import sys
import threading
from _thread import allocate_lock, get_ident

from repro.lint.report import Violation

__all__ = [
    "RULE_DEADLOCK",
    "RULE_RACE",
    "ThreadSanitizer",
    "active_sanitizer",
    "sanitize_enabled",
]

RULE_DEADLOCK = "RL301"
RULE_RACE = "RL302"

#: (module, class) pairs instrumented for write-race tagging by default.
DEFAULT_SHARED_CLASSES = (
    ("repro.parallel.executor", "ExecutorStats"),
    ("repro.serve.stats", "MetricSet"),
    ("repro.serve.cache", "ResultCache"),
    ("repro.resilience.breaker", "CircuitBreaker"),
    ("repro.stream.memtable", "ExactMemtable"),
    ("repro.stream.mutable", "MutableIndex"),
    ("repro.stream.policy", "CostModel"),
)

_ACTIVE: "ThreadSanitizer | None" = None


def sanitize_enabled() -> bool:
    """True when the ``REPRO_SANITIZE=1`` opt-in is set."""
    return os.environ.get("REPRO_SANITIZE", "") == "1"


def active_sanitizer() -> "ThreadSanitizer | None":
    return _ACTIVE


def _caller_site() -> tuple[str, int]:
    """First stack frame outside this module and ``threading``."""
    frame = sys._getframe(1)
    skip = (__file__, threading.__file__)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in skip:
            return filename, frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


class _TrackedLock:
    """Drop-in for a ``threading.Lock`` instance that reports to the
    sanitizer on blocking acquisitions and every release."""

    __slots__ = ("_inner", "_san", "name")

    def __init__(self, san: "ThreadSanitizer"):
        self._inner = allocate_lock()
        self._san = san
        self.name = "Lock@%s:%d" % _caller_site()

    def acquire(self, blocking: bool = True, timeout: float = -1):
        if blocking:
            self._san._on_acquire_attempt(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._san._on_acquired(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._san._on_released(self)

    def locked(self) -> bool:
        return self._inner.locked()

    __enter__ = acquire

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._inner.locked() else "unlocked"
        return f"<_TrackedLock {self.name} {state}>"


class ThreadSanitizer:
    """Context manager that instruments locks and shared-class writes."""

    def __init__(self):
        self._enabled = False
        self._orig_lock = None
        self._patched_setattrs: list[tuple[type, object]] = []
        self._tls = threading.local()
        self._state_lock = allocate_lock()
        # lock-order graph: edge (a, b) -> (thread name, site a, site b)
        self._edges: dict[tuple[int, int], tuple[str, str, str]] = {}
        self._adjacency: dict[int, set[int]] = {}
        self._lock_names: dict[int, str] = {}
        # write races: (id(obj), attr) -> [owner_tid, lockset|None, last site]
        self._writes: dict[tuple[int, str], list] = {}
        self._reports: list[Violation] = []
        self._reported_keys: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> "ThreadSanitizer":
        global _ACTIVE
        if self._enabled:
            return self
        self._enabled = True
        _ACTIVE = self
        self._orig_lock = threading.Lock
        san = self
        threading.Lock = lambda: _TrackedLock(san)  # type: ignore[assignment]
        for module_name, class_name in DEFAULT_SHARED_CLASSES:
            try:
                module = __import__(module_name, fromlist=[class_name])
                self.register_shared_class(getattr(module, class_name))
            except Exception:  # pragma: no cover - optional subsystems
                continue
        return self

    def disable(self) -> None:
        global _ACTIVE
        if not self._enabled:
            return
        self._enabled = False
        if _ACTIVE is self:
            _ACTIVE = None
        threading.Lock = self._orig_lock  # type: ignore[assignment]
        for cls, orig in self._patched_setattrs:
            if orig is None:
                del cls.__setattr__
            else:
                cls.__setattr__ = orig
        self._patched_setattrs.clear()

    def __enter__(self) -> "ThreadSanitizer":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # shared-class registration (write-race tagging)
    # ------------------------------------------------------------------
    def register_shared_class(self, cls: type) -> None:
        """Instrument ``cls.__setattr__`` so concurrent unsynchronized
        attribute writes on its instances are tagged (RL302)."""
        if any(patched is cls for patched, _ in self._patched_setattrs):
            return
        orig = cls.__dict__.get("__setattr__")
        orig_call = cls.__setattr__
        san = self

        def watched_setattr(obj, name, value):
            orig_call(obj, name, value)
            if not name.startswith("_lock"):
                san._record_write(obj, name)

        cls.__setattr__ = watched_setattr
        self._patched_setattrs.append((cls, orig))

    # ------------------------------------------------------------------
    # lock bookkeeping
    # ------------------------------------------------------------------
    def _held(self) -> list:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _on_acquire_attempt(self, lock: _TrackedLock) -> None:
        held = self._held()
        if not held:
            return
        site = "%s:%d" % _caller_site()
        thread = threading.current_thread().name
        with self._state_lock:
            self._lock_names[id(lock)] = lock.name
            for prior in held:
                edge = (id(prior), id(lock))
                if edge[0] == edge[1] or edge in self._edges:
                    continue
                self._lock_names[id(prior)] = prior.name
                self._edges[edge] = (thread, prior.name, site)
                self._adjacency.setdefault(edge[0], set()).add(edge[1])
                self._check_cycle(edge, site, thread)

    def _check_cycle(self, new_edge: tuple[int, int], site: str, thread: str) -> None:
        # DFS from the newly-acquired lock back to the held one: a path
        # means some other thread already established the reverse order.
        start, target = new_edge[1], new_edge[0]
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == target:
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._adjacency.get(node, ()))
        else:
            return
        reverse = self._edges.get((new_edge[1], new_edge[0]))
        held_name = self._lock_names.get(target, "?")
        taken_name = self._lock_names.get(start, "?")
        if reverse is not None:
            other = (
                f"; thread '{reverse[0]}' previously acquired "
                f"'{reverse[1]}' then the held lock at {reverse[2]}"
            )
        else:
            other = " via a longer lock chain recorded earlier"
        filename, lineno = _caller_site()
        self._report(
            ("deadlock", new_edge),
            Violation(
                path=filename,
                line=lineno,
                col=0,
                rule=RULE_DEADLOCK,
                message=(
                    f"potential deadlock: lock-order cycle — thread "
                    f"'{thread}' holds '{held_name}' while acquiring "
                    f"'{taken_name}' at {site}{other}"
                ),
            ),
        )

    def _on_acquired(self, lock: _TrackedLock) -> None:
        self._held().append(lock)

    def _on_released(self, lock: _TrackedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                break

    # ------------------------------------------------------------------
    # write-race tagging
    # ------------------------------------------------------------------
    def _record_write(self, obj, attr: str) -> None:
        tid = get_ident()
        lockset = frozenset(id(lock) for lock in self._held())
        filename, lineno = _caller_site()
        key = (id(obj), attr)
        with self._state_lock:
            state = self._writes.get(key)
            if state is None:
                # exclusive phase: first writer thread, candidate = all locks
                self._writes[key] = [tid, None, (filename, lineno)]
                return
            last_tid, candidate, last_site = state
            if candidate is None:
                if tid == last_tid:
                    state[2] = (filename, lineno)
                    return
                # First write from a second thread: publication (e.g. the
                # creator's __init__ before Thread.start) is happens-before,
                # so seed the candidate lockset without reporting yet.
                state[:] = [tid, lockset, (filename, lineno)]
                return
            candidate = candidate & lockset
            state[1] = candidate
            if candidate or tid == last_tid:
                state[0] = tid
                state[2] = (filename, lineno)
                return
            state[0] = tid
            report_key = ("race", type(obj).__name__, attr)
            self._report(
                report_key,
                Violation(
                    path=filename,
                    line=lineno,
                    col=0,
                    rule=RULE_RACE,
                    message=(
                        f"unsynchronized concurrent write to "
                        f"{type(obj).__name__}.{attr}: thread "
                        f"'{threading.current_thread().name}' wrote at "
                        f"{filename}:{lineno} with no lock in common with "
                        f"the previous writer at {last_site[0]}:{last_site[1]}"
                    ),
                ),
            )

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def _report(self, key, violation: Violation) -> None:
        if key in self._reported_keys:
            return
        self._reported_keys.add(key)
        self._reports.append(violation)

    def violations(self) -> list[Violation]:
        """All reports so far, minus any waived at the reported site with
        the standard ``# repro-lint: disable=RL30x`` comment syntax."""
        from repro.lint.engine import parse_waivers

        out: list[Violation] = []
        waiver_cache: dict[str, tuple[dict, set]] = {}
        with self._state_lock:
            reports = list(self._reports)
        for violation in reports:
            waivers = waiver_cache.get(violation.path)
            if waivers is None:
                try:
                    with open(violation.path, encoding="utf-8") as handle:
                        waivers = parse_waivers(handle.read())
                except OSError:
                    waivers = ({}, set())
                waiver_cache[violation.path] = waivers
            line_waivers, file_waivers = waivers
            if violation.rule in file_waivers:
                continue
            if any(
                violation.rule in line_waivers.get(line, set())
                for line in (violation.line, violation.line - 1)
            ):
                continue
            out.append(violation)
        return out
