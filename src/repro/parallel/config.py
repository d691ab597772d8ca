"""Execution policy for the shard worker pool.

:class:`ParallelConfig` is the knob surface of :mod:`repro.parallel`: how
many workers to use and which backend runs them.  It deliberately lives
next to (not inside) :class:`~repro.core.config.GraphBuildConfig` — the
*same* index can be built serially on a laptop and searched by a 4-worker
pool in production, so execution policy is not part of index identity and
never affects results (see ``docs/parallel.md`` for the determinism
contract).

Environment overrides (applied only where a field still holds its
default) let CI force a policy without threading arguments through every
call site::

    REPRO_NUM_WORKERS=2 REPRO_PARALLEL_BACKEND=process pytest -k sharding
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["BACKENDS", "ParallelConfig", "available_cpus"]

#: Recognised backend names.  ``auto`` resolves per call: ``process`` on
#: POSIX when more than one worker is useful, ``thread`` elsewhere
#: (Windows-safe: no fork, no per-worker copy of the state), ``serial``
#: when one worker would run everything anyway.
BACKENDS = ("auto", "serial", "thread", "process")

_ENV_WORKERS = "REPRO_NUM_WORKERS"
_ENV_BACKEND = "REPRO_PARALLEL_BACKEND"


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelConfig:
    """How per-shard work is executed.

    Attributes:
        num_workers: worker count; ``0`` = auto (``min(tasks, CPUs)``,
            or the ``REPRO_NUM_WORKERS`` environment override).
        backend: one of :data:`BACKENDS`; ``"auto"`` (or the
            ``REPRO_PARALLEL_BACKEND`` override) picks ``process`` on
            POSIX multi-core hosts, ``thread`` on other platforms, and
            ``serial`` whenever a pool could not help.
        max_retries: additional attempts after a shard task's first
            failure (tasks are pure, so retrying never changes results).
        task_timeout_s: per-attempt hung-task watchdog for pooled
            backends; ``0`` disables it (see
            :class:`~repro.resilience.retry.RetryPolicy`).
        backoff_base_ms / backoff_max_ms / retry_seed: seeded
            exponential-backoff schedule between retries.
        fault_plan: JSON fault plan (or ``@path``) for deterministic
            fault injection; empty defers to the ``REPRO_FAULT_PLAN``
            environment variable, and both empty disables injection
            entirely (see :mod:`repro.resilience.faults`).
    """

    num_workers: int = 0
    backend: str = "auto"
    max_retries: int = 2
    task_timeout_s: float = 0.0
    backoff_base_ms: float = 10.0
    backoff_max_ms: float = 2000.0
    retry_seed: int = 0
    fault_plan: str = ""

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = auto)")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        # Delegate retry-field validation to the policy constructor so the
        # two surfaces can never drift.
        self.retry_policy()

    def retry_policy(self):
        """The :class:`~repro.resilience.retry.RetryPolicy` these knobs name."""
        from repro.resilience import RetryPolicy

        return RetryPolicy(
            max_retries=self.max_retries,
            task_timeout_s=self.task_timeout_s,
            backoff_base_ms=self.backoff_base_ms,
            backoff_max_ms=self.backoff_max_ms,
            seed=self.retry_seed,
        )

    # ------------------------------------------------------------------
    def resolved_workers(self, num_tasks: int) -> int:
        """Worker count for ``num_tasks`` independent tasks."""
        workers = self.num_workers
        if workers == 0:
            env = os.environ.get(_ENV_WORKERS, "")
            workers = int(env) if env.isdigit() and int(env) > 0 else 0
        if workers == 0:
            workers = available_cpus()
        return max(1, min(workers, num_tasks))

    def resolved_backend(self, num_tasks: int) -> str:
        """Backend for ``num_tasks`` tasks (never returns ``"auto"``)."""
        backend = self.backend
        if backend == "auto":
            env = os.environ.get(_ENV_BACKEND, "")
            backend = env if env in BACKENDS else "auto"
        if self.resolved_workers(num_tasks) <= 1 or num_tasks <= 1:
            return "serial"
        if backend == "auto":
            backend = "process" if os.name == "posix" else "thread"
        return backend
