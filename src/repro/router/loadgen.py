"""Closed-loop multi-tenant fleet load generation + reference quota model.

:func:`run_fleet_closed_loop` replays a seeded
:class:`~repro.serve.loadgen.ZipfTenantSchedule` against a
:class:`~repro.router.ShardRouter`.  The dispatch rule that makes quota
accounting *exactly* reproducible: requests are partitioned onto client
threads **by tenant** (tenant → ``tenant % num_clients``), so every
tenant's requests are submitted in schedule (arrival) order by a single
thread, and each request carries its scheduled ``arrival_s`` as the
virtual quota clock.  Cross-tenant interleaving between threads is then
irrelevant — token buckets are per-tenant — and
:func:`expected_quota_outcomes`, a pure replay of the same per-tenant
arrival sequences through the same bucket arithmetic, predicts every
admit/reject decision bit-for-bit.

``pace=True`` additionally sleeps each client to its next request's
scheduled arrival (open-loop-ish timing on a closed-loop skeleton);
the default ``pace=False`` submits back-to-back for fast tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.router.quota import TenantOverQuota
from repro.router.router import NoReplicaAvailable, ShardRouter
from repro.serve.loadgen import ZipfTenantSchedule, run_client_threads
from repro.serve.server import RequestTimeout, ServeError
from repro.serve.stats import latency_summary

__all__ = ["FleetLoadReport", "expected_quota_outcomes", "run_fleet_closed_loop"]

#: Sentinel replica id for requests that never reached a replica.
NO_REPLICA = -1


@dataclass
class FleetLoadReport:
    """Client-side outcome of one fleet load run, aligned to the schedule.

    The per-request arrays all have length ``len(schedule)`` and are
    indexed by schedule position, so two runs of the same schedule can
    be compared element-wise (the determinism tests do exactly that).

    Attributes:
        ok / quota_rejected / timed_out / failed: outcome counts.
        hedged / hedge_wins: requests that issued a hedge leg / where
            the hedge leg answered first.
        latencies_ms: router-observed latency of each ``ok`` request.
        indices: ``(N, k)`` winning-leg neighbor ids (-1 rows for
            requests that produced no answer).
        replica: ``(N,)`` winning replica id (:data:`NO_REPLICA` when no
            leg won).
        outcome: ``(N,)`` outcome code per request — ``"ok"``,
            ``"quota"``, ``"timeout"``, ``"failed"``.
        per_tenant_ok / per_tenant_quota_rejected: outcome counts keyed
            by tenant name.
    """

    num_requests: int = 0
    ok: int = 0
    quota_rejected: int = 0
    timed_out: int = 0
    failed: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    duration_seconds: float = 0.0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    indices: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    replica: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    outcome: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=object))
    per_tenant_ok: dict[str, int] = field(default_factory=dict)
    per_tenant_quota_rejected: dict[str, int] = field(default_factory=dict)

    def latency_percentile_ms(self, q: float) -> float:
        return latency_summary(self.latencies_ms, (q,))[f"p{q:g}"]

    def summary(self) -> str:
        latency = latency_summary(self.latencies_ms)
        return (
            f"fleet load: requests={self.num_requests} ok={self.ok} "
            f"quota_rejected={self.quota_rejected} "
            f"timed_out={self.timed_out} failed={self.failed} "
            f"hedged={self.hedged} hedge_wins={self.hedge_wins} "
            f"in {self.duration_seconds:.2f}s; "
            f"latency p50={latency['p50']:.2f}ms "
            f"p95={latency['p95']:.2f}ms p99={latency['p99']:.2f}ms"
        )


def expected_quota_outcomes(
    schedule: ZipfTenantSchedule, rate_qps: float, burst: float
) -> dict[str, int]:
    """Reference token-bucket replay: tenant name → rejected count.

    Implements *the same arithmetic in the same order* as
    :class:`~repro.router.quota.TokenBucket` fed each tenant's arrivals
    in schedule order — which is exactly what
    :func:`run_fleet_closed_loop`'s tenant-partitioned dispatch
    guarantees the router sees — so the prediction is exact, not
    statistical.
    """
    rejected: dict[str, int] = {}
    for tenant, positions in schedule.per_tenant_positions().items():
        tokens = float(burst)
        last = None
        misses = 0
        for pos in positions:
            now = float(schedule.arrival_s[pos])
            if last is None:
                last = now
            now = max(now, last)
            tokens = min(float(burst), tokens + (now - last) * float(rate_qps))
            last = now
            if tokens >= 1.0:
                tokens -= 1.0
            else:
                misses += 1
        rejected[schedule.tenant_name(tenant)] = misses
    return rejected


def run_fleet_closed_loop(
    router: ShardRouter,
    queries: np.ndarray,
    schedule: ZipfTenantSchedule,
    num_clients: int = 4,
    k: int | None = None,
    timeout_ms: float | None = None,
    pace: bool = False,
) -> FleetLoadReport:
    """Replay ``schedule`` against ``router`` with tenant-partitioned
    closed-loop clients.

    Args:
        router: a started :class:`ShardRouter`.
        queries: ``(Q, dim)`` query pool; ``schedule.query_rows`` index
            into it (mod Q).
        schedule: who arrives when asking what (seeded).
        num_clients: client threads; tenants map to clients by
            ``tenant % num_clients`` so per-tenant order is preserved.
        k / timeout_ms: forwarded to :meth:`ShardRouter.search`; with
            ``k=None`` the report's ``indices`` are as wide as the
            replicas' ``default_k``.
        pace: sleep each client to its requests' scheduled arrivals
            (False = submit back-to-back, virtual time only).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    queries = np.atleast_2d(queries)
    num_rows = queries.shape[0]
    n = len(schedule)
    k_out = int(k) if k else router.replicas[0].server.config.default_k

    indices = np.full((n, k_out), -1, dtype=np.int64)
    replica = np.full(n, NO_REPLICA, dtype=np.int64)
    outcome = np.empty(n, dtype=object)
    latency = np.full(n, np.nan, dtype=np.float64)
    hedged_mask = np.zeros(n, dtype=bool)
    hedge_won_mask = np.zeros(n, dtype=bool)

    record_lock = threading.Lock()
    by_tenant = schedule.per_tenant_positions()
    client_positions: list[list[int]] = [[] for _ in range(num_clients)]
    for tenant, positions in sorted(by_tenant.items()):
        client_positions[tenant % num_clients].extend(int(p) for p in positions)
    for positions in client_positions:
        positions.sort()  # merged arrival order; per-tenant order intact

    start = time.monotonic()

    def worker(positions: list[int]) -> None:
        for pos in positions:
            arrival = float(schedule.arrival_s[pos])
            if pace:
                delay = start + arrival - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            tenant = schedule.tenant_name(int(schedule.tenants[pos]))
            row = int(schedule.query_rows[pos]) % num_rows
            try:
                result = router.search(
                    queries[row],
                    k=k,
                    tenant=tenant,
                    timeout_ms=timeout_ms,
                    arrival_s=arrival,
                )
            except TenantOverQuota:
                with record_lock:
                    outcome[pos] = "quota"
            except RequestTimeout:
                with record_lock:
                    outcome[pos] = "timeout"
            except (NoReplicaAvailable, ServeError):
                with record_lock:
                    outcome[pos] = "failed"
            else:
                got = min(k_out, result.indices.shape[0])
                with record_lock:
                    outcome[pos] = "ok"
                    indices[pos, :got] = result.indices[:got]
                    replica[pos] = result.replica
                    latency[pos] = result.latency_ms
                    hedged_mask[pos] = result.hedged
                    hedge_won_mask[pos] = result.hedge_won

    duration = run_client_threads(
        worker, [p for p in client_positions if p], "fleet-client"
    )

    report = FleetLoadReport(
        num_requests=n,
        ok=int(np.sum(outcome == "ok")),
        quota_rejected=int(np.sum(outcome == "quota")),
        timed_out=int(np.sum(outcome == "timeout")),
        failed=int(np.sum(outcome == "failed")),
        hedged=int(hedged_mask.sum()),
        hedge_wins=int(hedge_won_mask.sum()),
        duration_seconds=duration,
        latencies_ms=latency[outcome == "ok"],
        indices=indices,
        replica=replica,
        outcome=outcome,
    )
    for tenant, positions in sorted(by_tenant.items()):
        name = schedule.tenant_name(tenant)
        tenant_outcomes = outcome[positions]
        report.per_tenant_ok[name] = int(np.sum(tenant_outcomes == "ok"))
        report.per_tenant_quota_rejected[name] = int(
            np.sum(tenant_outcomes == "quota")
        )
    return report
