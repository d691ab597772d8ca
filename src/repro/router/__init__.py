"""repro.router — a replicated shard-router tier over :mod:`repro.serve`.

One :class:`ShardRouter` fronts N replicas (each a full
:class:`~repro.serve.CagraServer` over the same logical index) and adds
the fleet concerns a single server cannot provide:

* **load-aware dispatch** — replicas scored by latency EWMA × standing
  load (in-flight legs + queue depth), or deterministic round-robin;
* **hedged requests** — a backup leg to the next-best replica after a
  seeded, EWMA-derived hedge delay; first success wins, exactly once;
* **failover** — failed legs re-dispatch to the best untried replica
  (bounded by ``max_attempts``), feeding per-replica circuit breakers;
* **per-tenant admission quotas** — token buckets rejecting over-quota
  tenants with a typed :class:`TenantOverQuota` before any queue slot
  is consumed;
* **fleet observability** — :class:`RouterStats` (the whole
  :class:`~repro.serve.ServeStats` surface summed fleet-wide + router
  counters) and the :class:`FleetHealth` snapshot;
* **rolling upgrades** — :meth:`ShardRouter.rolling_swap` drains and
  hot-swaps one replica at a time, so traffic never stops.

See ``docs/router.md`` for the dispatch policy, the hedge-delay math,
quota semantics, and the failure-semantics table.
"""

from repro.router.config import DISPATCH_POLICIES, RouterConfig
from repro.router.loadgen import run_fleet_closed_loop
from repro.router.quota import (
    QuotaLedger,
    TenantOverQuota,
    TokenBucket,
    expected_quota_outcomes,
)
from repro.router.replica import Ewma, Replica
from repro.router.router import NoReplicaAvailable, RoutedResult, ShardRouter
from repro.router.stats import FleetHealth, RouterStats

__all__ = [
    "DISPATCH_POLICIES",
    "Ewma",
    "FleetHealth",
    "NoReplicaAvailable",
    "QuotaLedger",
    "Replica",
    "RoutedResult",
    "RouterConfig",
    "RouterStats",
    "ShardRouter",
    "TenantOverQuota",
    "TokenBucket",
    "expected_quota_outcomes",
    "run_fleet_closed_loop",
]
