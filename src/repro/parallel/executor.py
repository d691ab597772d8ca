"""The shard worker pool (:class:`ShardExecutor`).

One executor owns at most one pool (thread or process) and runs batches
of independent, *pure* tasks — per-shard CAGRA builds and per-shard
searches.  Because every task is a deterministic function of its payload,
the executor can guarantee:

* **determinism** — results are bitwise identical across backends and
  worker counts (the paper's multi-GPU sharding has the same property:
  each GPU's sub-graph is an independent computation), and retrying a
  task can never change its output;
* **robustness** — every payload is submitted as its own future and
  tracked individually.  A failing task is retried with seeded
  exponential backoff (:class:`~repro.resilience.retry.RetryPolicy`); a
  hung task is detected by a per-attempt watchdog and failed over; a
  dead worker (``BrokenProcessPool``) recycles the pool and resubmits
  only the payloads that never produced a result; and infrastructure
  failures (unpicklable payloads, pool creation errors) degrade to a
  serial re-run of the *unfinished* payloads only — completed results
  are always kept.

Process pools use the ``fork`` start method where available (no module
re-import, sub-second spin-up) and fall back to the platform default
elsewhere.  The data every task reads (a dataset to build from, the shard
list to search) is the executor's ``state``: each process worker gets it
once, at start-up, through the pool initializer — inherited without a
copy under ``fork``, pickled once per worker start under ``spawn`` — and
serial or thread tasks get the same object directly, so payloads carry
only what differs per task.

Failure-path accounting lands in :attr:`ShardExecutor.stats`
(:class:`ExecutorStats`): retries, watchdog timeouts, pool recycles, and
serial fallbacks, so callers (and tests) can assert *how* a result was
produced, not just what it was.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.parallel.config import ParallelConfig
from repro.resilience import (
    RetryPolicy,
    TaskTimeout,
    resolve_fault_plan,
    set_current_attempt,
)

__all__ = ["ExecutorStats", "ShardExecutor", "TaskOutcome"]

#: How long the executor waits for in-flight futures to land before the
#: serial infrastructure fallback re-runs the rest (completed results are
#: kept; anything still pending after this grace is re-run serially).
_INFRA_HARVEST_SECONDS = 5.0

#: Exceptions that mean "the pool plumbing failed", not "the task failed".
#: AttributeError/TypeError are how pickle reports unpicklable payloads
#: (local functions, closures).  Tasks are pure, so the serial re-run
#: either succeeds (infrastructure failure) or raises the task's own
#: genuine exception unchanged.
_INFRA_ERRORS = (pickle.PicklingError, AttributeError, TypeError, OSError)


def _process_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: The executor state of this process worker, installed by
#: :func:`_install_state` when the worker starts.
_worker_state = None


def _install_state(state):
    global _worker_state
    _worker_state = state


def _run_task(fn, payload, attempt, state=None):
    """Run one task, publishing the retry attempt to the fault layer.

    ``fn(state, payload)`` when the executor holds state, else
    ``fn(payload)``.
    """
    set_current_attempt(attempt)
    try:
        return fn(payload) if state is None else fn(state, payload)
    finally:
        set_current_attempt(0)


def _run_in_worker(fn, payload, attempt):
    """Process-worker entry: the state arrived once, at worker start."""
    return _run_task(fn, payload, attempt, _worker_state)


@dataclass
class TaskOutcome:
    """The terminal state of one payload after retries.

    Exactly one of ``value`` (success) and ``error`` (every allowed
    attempt failed) is meaningful; ``attempts`` counts executions that
    were started for this payload, including the successful one.
    """

    value: object = None
    error: BaseException | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


_STAT_NAMES = (
    "tasks", "completed", "failed", "retries",
    "timeouts", "pool_recycles", "serial_fallbacks",
)


@dataclass
class ExecutorStats:
    """Failure-path counters for one executor (cumulative across maps).

    A single executor can serve concurrent ``map`` calls (e.g. a sharded
    index shared by server scheduler threads), so every counter bump goes
    through :meth:`increment`, which serializes on an internal lock —
    unlocked ``stats.completed += 1`` from two threads loses updates.
    """

    tasks: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_recycles: int = 0
    serial_fallbacks: int = 0
    # Resolve threading.Lock at instance-creation time (not class-def
    # time) so runtime lock instrumentation sees this lock too.
    _lock: threading.Lock = field(
        default_factory=lambda: threading.Lock(), repr=False, compare=False
    )

    def increment(self, name: str, n: int = 1) -> None:
        """Atomically add ``n`` to the counter called ``name``."""
        if name not in _STAT_NAMES:
            raise AttributeError(f"unknown ExecutorStats counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def as_dict(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in _STAT_NAMES}


@dataclass
class _Pending:
    """Bookkeeping for one in-flight future."""

    index: int
    attempt: int
    deadline: float | None
    epoch: int


@dataclass
class _Waiting:
    """A retry sitting out its backoff delay."""

    resume_at: float
    index: int
    attempt: int


class ShardExecutor:
    """Runs independent shard tasks on a serial/thread/process backend.

    Construct directly with *resolved* values, or via :meth:`from_config`
    to apply :class:`~repro.parallel.config.ParallelConfig` resolution
    (auto worker count, platform backend choice, env overrides, retry
    policy, fault plan).  ``state`` is the read-only data every task of
    this executor needs; with it set, tasks are called as
    ``fn(state, payload)``.  Usable as a context manager; :meth:`close`
    shuts the pool down.
    """

    def __init__(
        self,
        num_workers: int = 1,
        backend: str = "serial",
        retry: RetryPolicy | None = None,
        fault_plan=None,
        state=None,
    ):
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.backend = backend if num_workers > 1 else "serial"
        self.retry = retry or RetryPolicy()
        self.state = state
        self.stats = ExecutorStats()
        self._fault = None
        if fault_plan is not None:
            from repro.resilience import FaultInjector

            self._fault = FaultInjector(fault_plan)
        self._pool = None
        self._pool_epoch = 0

    @classmethod
    def from_config(
        cls, config: ParallelConfig, num_tasks: int, state=None
    ) -> "ShardExecutor":
        return cls(
            num_workers=config.resolved_workers(num_tasks),
            backend=config.resolved_backend(num_tasks),
            retry=config.retry_policy(),
            fault_plan=resolve_fault_plan(config.fault_plan),
            state=state,
        )

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the pool (idempotent); serial maps keep working."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            if self._fault is not None:
                self._fault.fire("pool.spawn", backend=self.backend)
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-shard",
                )
            elif self.backend == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    mp_context=_process_context(),
                    initializer=_install_state,
                    initargs=(self.state,),
                )
        return self._pool

    def _recycle_pool(self, kill: bool = False) -> None:
        """Drop the current pool; the next submit creates a fresh one.

        With ``kill=True`` worker processes are terminated first — the
        only way to reclaim a worker stuck in a hung task.
        """
        pool, self._pool = self._pool, None
        self._pool_epoch += 1
        if pool is None:
            return
        self.stats.increment("pool_recycles")
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _downgrade_to_serial(self) -> None:
        self.close()
        self.backend = "serial"

    # ------------------------------------------------------------------
    def map(self, fn: Callable, payloads: Sequence, policy: RetryPolicy | None = None) -> list:
        """Run ``fn`` over ``payloads``; results in payload order.

        ``fn`` must be a module-level function and each payload (and
        the executor's state, under ``spawn``) picklable when the backend
        is ``process``.  Tasks are retried per the
        executor's :class:`RetryPolicy`; the first payload (in payload
        order) whose retries are exhausted has its exception re-raised
        unchanged.  Use :meth:`map_outcomes` to collect per-payload
        failures instead of raising.
        """
        results = []
        for outcome in self.map_outcomes(fn, payloads, policy):
            if outcome.error is not None:
                raise outcome.error
            results.append(outcome.value)
        return results

    def map_outcomes(
        self, fn: Callable, payloads: Sequence, policy: RetryPolicy | None = None
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``payloads``; one :class:`TaskOutcome` each.

        Never raises for task-level failures: a payload whose attempts
        are all exhausted yields an outcome with ``error`` set (a
        :class:`TaskTimeout` when the watchdog fired on every attempt).
        Pool-level failures are absorbed: dead workers recycle the pool
        and resubmit unfinished payloads; unpicklable payloads fall back
        to a serial re-run of exactly the payloads without results.
        """
        payloads = list(payloads)
        n = len(payloads)
        if n == 0:
            return []
        policy = policy or self.retry
        self.stats.increment("tasks", n)
        # The watchdog needs a pool even for a single task (the calling
        # thread cannot interrupt itself).
        use_pool = self.backend != "serial" and (n > 1 or policy.task_timeout_s > 0)
        if not use_pool:
            return self._serial_outcomes(fn, payloads, policy)
        return self._pooled_outcomes(fn, payloads, policy)

    # ------------------------------------------------------------------
    def _serial_outcomes(
        self,
        fn: Callable,
        payloads: list,
        policy: RetryPolicy,
        slots: list | None = None,
    ) -> list[TaskOutcome]:
        """Inline execution with retry/backoff; fills only empty slots."""
        if slots is None:
            slots = [None] * len(payloads)
        for index, payload in enumerate(payloads):
            if slots[index] is not None:
                continue
            attempt = 0
            while True:
                try:
                    value = _run_task(fn, payload, attempt, self.state)
                except Exception as exc:
                    if attempt < policy.max_retries:
                        self.stats.increment("retries")
                        time.sleep(policy.backoff_seconds(index, attempt))
                        attempt += 1
                        continue
                    slots[index] = TaskOutcome(error=exc, attempts=attempt + 1)
                    self.stats.increment("failed")
                else:
                    slots[index] = TaskOutcome(value=value, attempts=attempt + 1)
                    self.stats.increment("completed")
                break
        return slots

    def _pooled_outcomes(
        self, fn: Callable, payloads: list, policy: RetryPolicy
    ) -> list[TaskOutcome]:
        n = len(payloads)
        slots: list[TaskOutcome | None] = [None] * n
        watchdog = policy.task_timeout_s if policy.task_timeout_s > 0 else None
        pending: dict = {}  # future -> _Pending
        waiting: list[_Waiting] = []
        # Pool recycles are bounded per map call so a task that kills its
        # worker on every attempt cannot recycle forever; past the budget
        # the whole map degrades to the serial fallback.
        recycles_left = policy.max_retries + 2
        infra_error: BaseException | None = None

        def submit(index: int, attempt: int) -> bool:
            nonlocal infra_error
            try:
                pool = self._ensure_pool()
                if self.backend == "process":
                    future = pool.submit(_run_in_worker, fn, payloads[index], attempt)
                else:
                    future = pool.submit(
                        _run_task, fn, payloads[index], attempt, self.state
                    )
            except Exception as exc:
                infra_error = exc
                return False
            deadline = (time.monotonic() + watchdog) if watchdog else None
            pending[future] = _Pending(index, attempt, deadline, self._pool_epoch)
            return True

        def run_inline(index: int, attempt: int) -> None:
            """Last resort after repeated pool breakage: one inline try."""
            self.stats.increment("serial_fallbacks")
            try:
                value = _run_task(fn, payloads[index], attempt, self.state)
            except Exception as exc:
                slots[index] = TaskOutcome(error=exc, attempts=attempt + 1)
                self.stats.increment("failed")
            else:
                slots[index] = TaskOutcome(value=value, attempts=attempt + 1)
                self.stats.increment("completed")

        for i in range(n):
            if not submit(i, 0):
                break

        while infra_error is None and (pending or waiting):
            now = time.monotonic()
            for entry in [w for w in waiting if w.resume_at <= now]:
                waiting.remove(entry)
                if not submit(entry.index, entry.attempt):
                    break
            if infra_error is not None or not (pending or waiting):
                break

            bounds = [p.deadline for p in pending.values() if p.deadline is not None]
            bounds += [w.resume_at for w in waiting]
            block = max(0.0, min(bounds) - now) if bounds else None
            if pending:
                done, _ = wait(list(pending), timeout=block, return_when=FIRST_COMPLETED)
            else:
                time.sleep(block if block is not None else 0.01)
                done = ()
            now = time.monotonic()

            for future in done:
                meta = pending.pop(future)
                if slots[meta.index] is not None:
                    continue
                try:
                    value = future.result()
                except (BrokenProcessPool, CancelledError) as exc:
                    # A worker died (or its pool was torn down): recycle
                    # once per breakage, then resubmit.  Pool breakage
                    # does not consume the task's own retry budget — an
                    # innocent payload whose worker was killed by a
                    # neighbour re-runs at full budget — but a payload
                    # that *keeps* arriving with a broken pool eventually
                    # runs inline so the map always terminates.
                    if meta.epoch == self._pool_epoch:
                        if recycles_left <= 0:
                            infra_error = exc
                            continue
                        recycles_left -= 1
                        self._recycle_pool()
                    if meta.attempt < policy.max_retries:
                        self.stats.increment("retries")
                        submit(meta.index, meta.attempt + 1)
                    else:
                        run_inline(meta.index, meta.attempt + 1)
                except _INFRA_ERRORS as exc:
                    infra_error = exc
                except Exception as exc:
                    if meta.attempt < policy.max_retries:
                        self.stats.increment("retries")
                        waiting.append(_Waiting(
                            now + policy.backoff_seconds(meta.index, meta.attempt),
                            meta.index,
                            meta.attempt + 1,
                        ))
                    else:
                        slots[meta.index] = TaskOutcome(
                            error=exc, attempts=meta.attempt + 1
                        )
                        self.stats.increment("failed")
                else:
                    slots[meta.index] = TaskOutcome(
                        value=value, attempts=meta.attempt + 1
                    )
                    self.stats.increment("completed")

            if infra_error is not None:
                break

            # Watchdog sweep: declare expired tasks hung and fail over.
            expired = {
                future: pending.pop(future)
                for future in [
                    f for f, p in pending.items()
                    if p.deadline is not None and p.deadline <= now
                ]
            }
            if expired:
                self.stats.increment("timeouts", len(expired))
                carryover: list[_Pending] = []
                if self.backend == "process":
                    # Terminating the hung worker kills the whole pool;
                    # innocents are resubmitted on the fresh pool at no
                    # cost to their retry budget.
                    carryover = [pending.pop(f) for f in list(pending)]
                    self._recycle_pool(kill=True)
                for future in expired:
                    future.cancel()
                for meta in expired.values():
                    if slots[meta.index] is not None:
                        continue
                    if meta.attempt < policy.max_retries:
                        self.stats.increment("retries")
                        if not submit(meta.index, meta.attempt + 1):
                            break
                    else:
                        slots[meta.index] = TaskOutcome(
                            error=TaskTimeout(
                                f"shard task {meta.index} exceeded the "
                                f"{policy.task_timeout_s}s watchdog on "
                                f"attempt {meta.attempt + 1}"
                            ),
                            attempts=meta.attempt + 1,
                        )
                        self.stats.increment("failed")
                for meta in carryover:
                    if slots[meta.index] is None:
                        if not submit(meta.index, meta.attempt):
                            break

        if infra_error is not None:
            # Harvest whatever already finished (pure tasks: completed
            # results are kept), then re-run only the unfinished payloads
            # serially — never the whole batch.
            if pending:
                done, not_done = wait(list(pending), timeout=_INFRA_HARVEST_SECONDS)
                for future in done:
                    meta = pending.pop(future)
                    if slots[meta.index] is not None:
                        continue
                    try:
                        value = future.result()
                    except Exception:
                        continue  # re-run serially below
                    slots[meta.index] = TaskOutcome(
                        value=value, attempts=meta.attempt + 1
                    )
                    self.stats.increment("completed")
                for future in not_done:
                    future.cancel()
            unfinished = sum(1 for slot in slots if slot is None)
            warnings.warn(
                f"{self.backend} pool failed ({infra_error!r}); re-running the "
                f"{unfinished} unfinished shard task(s) serially",
                RuntimeWarning,
                stacklevel=3,
            )
            self.stats.increment("serial_fallbacks", unfinished)
            self._downgrade_to_serial()
            return self._serial_outcomes(fn, payloads, policy, slots=slots)
        return slots

    def __repr__(self) -> str:
        return (
            f"ShardExecutor(num_workers={self.num_workers}, "
            f"backend={self.backend!r}, pid={os.getpid()})"
        )
