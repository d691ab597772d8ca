"""Seeded load generators driving a :class:`CagraServer`.

Two standard closed-form workload shapes:

* **open loop** (:func:`run_open_loop`) — Poisson arrivals: inter-arrival
  gaps are i.i.d. exponential draws from a seeded
  ``numpy.random.Generator``, so the *schedule* is fully deterministic;
  arrivals do not wait for completions, which is what exposes queueing
  delay, backpressure, and timeout behaviour under overload.
* **closed loop** (:func:`run_closed_loop`) — ``num_clients`` synchronous
  workers, each submitting its next query the moment the previous one
  completes; offered load self-limits to the server's capacity.

Both return a :class:`LoadReport` with client-observed outcome counts,
the per-request latency sample, and the raw results (query row → ids) so
callers can score recall against ground truth.

Multi-tenant traffic is modeled by :func:`make_zipf_schedule`: a fully
seeded arrival schedule whose tenant ids are drawn ``Zipf(s)`` (a few
tenants dominate, the realistic skew) with Poisson inter-arrival gaps
and round-robin-free query rows.  The schedule is a plain value object —
:class:`repro.router`'s closed-loop fleet loadgen and the ``route`` CLI
both replay it, and because every decision (who arrives, when, asking
what) is fixed by the seed, admission-quota outcomes can be checked
*exactly* against a reference token-bucket simulation of the same
schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.server import (
    CagraServer,
    RequestTimeout,
    ServeError,
    ServerOverloaded,
)
from repro.serve.stats import latency_summary

__all__ = [
    "LoadReport",
    "ZipfTenantSchedule",
    "make_zipf_schedule",
    "run_client_threads",
    "run_closed_loop",
    "run_open_loop",
]


@dataclass(frozen=True)
class ZipfTenantSchedule:
    """A seeded multi-tenant arrival schedule (who, when, asking what).

    Attributes:
        arrival_s: ``(N,)`` cumulative arrival offsets in seconds from
            the start of the run (Poisson process at ``rate_qps``).
        tenants: ``(N,)`` tenant index per request, drawn ``Zipf(s)``
            over ``num_tenants`` ranks (tenant 0 is the heaviest).
        query_rows: ``(N,)`` row into the caller's query pool.
        num_tenants / zipf_s / rate_qps / seed: generation parameters,
            kept so reports and reference simulations are self-describing.
    """

    arrival_s: np.ndarray
    tenants: np.ndarray
    query_rows: np.ndarray
    num_tenants: int
    zipf_s: float
    rate_qps: float
    seed: int

    def __len__(self) -> int:
        return int(self.arrival_s.shape[0])

    def tenant_name(self, tenant: int) -> str:
        return f"tenant-{int(tenant)}"

    def per_tenant_positions(self) -> dict[int, np.ndarray]:
        """Schedule positions grouped by tenant, in arrival order.

        This is the partition the closed-loop fleet loadgen dispatches
        by: all of one tenant's requests stay on one client thread, so
        each tenant's arrival order (and therefore its token-bucket
        refill sequence) is preserved exactly.
        """
        return {
            int(tenant): np.flatnonzero(self.tenants == tenant)
            for tenant in np.unique(self.tenants)
        }


def make_zipf_schedule(
    num_requests: int,
    num_tenants: int,
    num_query_rows: int,
    rate_qps: float = 1000.0,
    zipf_s: float = 1.1,
    seed: int = 0,
) -> ZipfTenantSchedule:
    """Draw a seeded Zipfian multi-tenant arrival schedule.

    Tenant ranks ``1..num_tenants`` get probability ``rank**-zipf_s``
    (normalized); arrivals are a Poisson process at ``rate_qps``; query
    rows are uniform over the pool.  Same arguments ⇒ bitwise-identical
    schedule, on any platform numpy's Philox streams are stable on.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_tenants < 1:
        raise ValueError("num_tenants must be >= 1")
    if num_query_rows < 1:
        raise ValueError("num_query_rows must be >= 1")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be > 0")
    if zipf_s < 0:
        raise ValueError("zipf_s must be >= 0 (0 = uniform tenants)")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_tenants + 1, dtype=np.float64)
    probs = ranks ** -zipf_s
    probs /= probs.sum()
    tenants = rng.choice(num_tenants, size=num_requests, p=probs)
    arrival_s = np.cumsum(rng.exponential(1.0 / rate_qps, size=num_requests))
    query_rows = rng.integers(0, num_query_rows, size=num_requests)
    return ZipfTenantSchedule(
        arrival_s=arrival_s,
        tenants=tenants.astype(np.int64),
        query_rows=query_rows.astype(np.int64),
        num_tenants=num_tenants,
        zipf_s=zipf_s,
        rate_qps=rate_qps,
        seed=seed,
    )


@dataclass
class LoadReport:
    """Client-side outcome of one load-generation run.

    ``results`` holds ``(query_row, indices)`` pairs for every completed
    request, where ``query_row`` indexes the query matrix the generator
    was given (requests cycle through it round-robin).
    """

    mode: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    failed: int = 0
    duration_seconds: float = 0.0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    results: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.duration_seconds if self.duration_seconds else 0.0

    def latency_percentile_ms(self, q: float) -> float:
        return latency_summary(self.latencies_ms, (q,))[f"p{q:g}"]

    def summary(self) -> str:
        latency = latency_summary(self.latencies_ms)
        return (
            f"{self.mode}-loop load: submitted={self.submitted} "
            f"completed={self.completed} rejected={self.rejected} "
            f"timed_out={self.timed_out} failed={self.failed} "
            f"in {self.duration_seconds:.2f}s ({self.achieved_qps:,.0f} qps); "
            f"latency p50={latency['p50']:.2f}ms "
            f"p95={latency['p95']:.2f}ms p99={latency['p99']:.2f}ms"
        )


def run_client_threads(worker, client_args, name: str) -> float:
    """Run ``worker(arg)`` on one thread per entry of ``client_args``;
    returns the seconds from first start to last join (the closed-loop
    skeleton every load generator shares)."""
    threads = [
        threading.Thread(target=worker, args=(arg,), name=f"{name}-{c}")
        for c, arg in enumerate(client_args)
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.monotonic() - start


def _collect(report: LoadReport, pending: list) -> None:
    """Resolve every outstanding handle into the report."""
    latencies = []
    for query_row, handle in pending:
        try:
            result = handle.result()
        except RequestTimeout:
            report.timed_out += 1
        except ServeError:
            report.failed += 1
        else:
            report.completed += 1
            latencies.append(result.latency_ms)
            report.results.append((query_row, result.indices))
    report.latencies_ms = np.asarray(latencies, dtype=np.float64)


def run_open_loop(
    server: CagraServer,
    queries: np.ndarray,
    rate_qps: float,
    num_requests: int,
    k: int | None = None,
    timeout_ms: float | None = None,
    seed: int = 0,
) -> LoadReport:
    """Poisson (open-loop) load: arrivals ignore completions.

    Args:
        server: a started :class:`CagraServer`.
        queries: ``(Q, dim)`` query pool, cycled round-robin.
        rate_qps: mean arrival rate; gaps are ``Exponential(1/rate)``.
        num_requests: total submissions.
        k / timeout_ms: forwarded to :meth:`CagraServer.submit`.
        seed: seeds the arrival-schedule Generator (deterministic).
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be > 0")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    queries = np.atleast_2d(queries)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num_requests)
    arrivals = np.cumsum(gaps)

    report = LoadReport(mode="open")
    pending: list = []
    start = time.monotonic()
    for i in range(num_requests):
        delay = start + arrivals[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        query_row = i % queries.shape[0]
        try:
            handle = server.submit(queries[query_row], k=k, timeout_ms=timeout_ms)
        except ServerOverloaded:
            report.rejected += 1
        else:
            pending.append((query_row, handle))
        report.submitted += 1
    _collect(report, pending)
    report.duration_seconds = time.monotonic() - start
    return report


def run_closed_loop(
    server: CagraServer,
    queries: np.ndarray,
    num_clients: int,
    requests_per_client: int,
    k: int | None = None,
    timeout_ms: float | None = None,
) -> LoadReport:
    """Closed-loop load: each of ``num_clients`` workers submits its next
    query as soon as the previous one resolves (think-time zero)."""
    if num_clients < 1 or requests_per_client < 1:
        raise ValueError("num_clients and requests_per_client must be >= 1")
    queries = np.atleast_2d(queries)
    num_rows = queries.shape[0]
    report = LoadReport(mode="closed")
    lock = threading.Lock()
    latencies: list[float] = []

    def worker(client: int) -> None:
        for j in range(requests_per_client):
            query_row = (client * requests_per_client + j) % num_rows
            outcome = None
            try:
                result = server.search(queries[query_row], k=k, timeout_ms=timeout_ms)
            except ServerOverloaded:
                outcome = "rejected"
            except RequestTimeout:
                outcome = "timed_out"
            except ServeError:
                outcome = "failed"
            with lock:
                report.submitted += 1
                if outcome is None:
                    report.completed += 1
                    latencies.append(result.latency_ms)
                    report.results.append((query_row, result.indices))
                else:
                    setattr(report, outcome, getattr(report, outcome) + 1)

    report.duration_seconds = run_client_threads(worker, range(num_clients), "loadgen")
    report.latencies_ms = np.asarray(latencies, dtype=np.float64)
    return report
