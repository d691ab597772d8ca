"""repro.serve — online serving on top of :class:`repro.CagraIndex`.

Turns the offline index into a traffic-serving frontend: a dynamic
micro-batching scheduler (coalesce to the single-CTA fast path, route
batch-of-1 flushes to multi-CTA, per Table II), bounded-queue
backpressure with per-request deadlines, an LRU result cache, hot index
swap, a metrics surface, and seeded open/closed-loop load shapes over
the one schedule → driver → report load core.
Failure handling — batch bisection, degraded sharded serving, per-shard
circuit breakers, and the :meth:`CagraServer.health` snapshot — rides on
:mod:`repro.resilience`.  See ``docs/serving.md`` for the full contracts
and ``docs/resilience.md`` for failure semantics.
"""

from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.loadgen import (
    OUTCOMES,
    ScheduleReport,
    ZipfTenantSchedule,
    drive_schedule,
    make_zipf_schedule,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.server import (
    CagraServer,
    PendingResult,
    RequestTimeout,
    ServeError,
    ServeResult,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.stats import MetricSet, ServeStats

__all__ = [
    "CagraServer",
    "MetricSet",
    "OUTCOMES",
    "PendingResult",
    "RequestTimeout",
    "ResultCache",
    "ScheduleReport",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServeStats",
    "ServerClosed",
    "ServerOverloaded",
    "ZipfTenantSchedule",
    "drive_schedule",
    "make_zipf_schedule",
    "run_closed_loop",
    "run_open_loop",
]
