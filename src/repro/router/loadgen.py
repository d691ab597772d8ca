"""Closed-loop multi-tenant fleet load: a seeded
:class:`~repro.serve.loadgen.ZipfTenantSchedule` replayed against a
:class:`~repro.router.ShardRouter` through the one load driver."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.router.router import ShardRouter
from repro.serve.loadgen import ScheduleReport, ZipfTenantSchedule, drive_schedule

__all__ = ["run_fleet_closed_loop"]


def run_fleet_closed_loop(
    router: ShardRouter,
    queries: np.ndarray,
    schedule: ZipfTenantSchedule,
    num_clients: int = 4,
    k: int | None = None,
    timeout_ms: float | None = None,
    pace: bool = False,
) -> ScheduleReport:
    """Replay ``schedule`` against ``router`` with tenant-partitioned
    closed-loop clients.

    Requests are partitioned onto client threads **by tenant**, so each
    tenant's requests go out in schedule order from one thread, each
    carrying its scheduled ``arrival_s`` as the virtual quota clock:
    cross-thread interleaving cannot touch the per-tenant token buckets,
    and :func:`~repro.router.expected_quota_outcomes` predicts every
    admit/reject decision exactly.

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
        pace: sleep each client to its requests' scheduled arrivals and
            measure latency from them (False = submit back-to-back,
            virtual time only).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    queries = np.atleast_2d(queries)
    schedule = dataclasses.replace(
        schedule, query_rows=schedule.query_rows % queries.shape[0]
    )
    clients: list[list[int]] = [[] for _ in range(num_clients)]
    for tenant, positions in schedule.per_tenant_positions().items():
        clients[tenant % num_clients].extend(positions)

    def send(pos: int):
        return router.search(
            queries[schedule.query_rows[pos]],
            k=k,
            tenant=schedule.tenant_name(schedule.tenants[pos]),
            timeout_ms=timeout_ms,
            arrival_s=float(schedule.arrival_s[pos]),
        )

    # Sorted: merged arrival order, each tenant's own order intact.
    clients = [sorted(positions) for positions in clients]
    return drive_schedule(send, schedule, clients, pace=pace, shape="fleet")
