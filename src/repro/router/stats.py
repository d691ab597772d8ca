"""Fleet metrics: :class:`RouterStats` (a :class:`~repro.serve.ServeStats`
superset) and the :class:`FleetHealth` snapshot.

The router records its own counters into the same lock-protected
:class:`~repro.serve.stats.MetricSet` the serve layer uses.
:meth:`ShardRouter.stats` merges three sources into one immutable
:class:`RouterStats`:

* the base :class:`~repro.serve.ServeStats` fields, folded across every
  replica's own server stats by each field's declared rule — the whole
  per-server surface, fleet-wide (:func:`~repro.serve.stats.fold_fleet`);
* the router's own counters (routed requests, hedges issued/won,
  failovers, quota rejections, rolling swaps);
* per-replica snapshots (state, EWMA, dispatch/win/failure counts).

The latency percentiles are **router-observed end-to-end** latencies —
submit-to-first-winning-leg — not per-server scheduler latencies.  That
is deliberate: hedging exists to improve exactly this number, so the
fleet dashboard must report the client's experience, not the replicas'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.stats import ServeStats, fields_as_json, metric

__all__ = ["FleetHealth", "RouterStats"]


@dataclass(frozen=True)
class RouterStats(ServeStats):
    """Fleet dashboard: everything :class:`ServeStats` reports, summed
    across replicas, plus the router tier's own counters.

    Attributes (beyond the inherited surface):
        replicas: fleet size (including dead replicas).
        replicas_active / replicas_draining / replicas_dead: life-cycle
            census at snapshot time.
        routed: requests the router resolved (any outcome past quota).
        routed_failed: requests that exhausted every leg and attempt.
        hedges_issued: backup legs sent after a hedge delay expired.
        hedges_won: hedged requests where the backup leg answered first.
        failovers: sequential re-dispatches after a failed leg.
        quota_rejections: admissions refused with ``TenantOverQuota``.
        quota_rejections_by_tenant: the same, per tenant id.
        rolling_swaps: completed :meth:`ShardRouter.rolling_swap` runs.
        per_replica: replica id → :meth:`Replica.snapshot` dict.
    """

    replicas: int = metric("fleet")
    replicas_active: int = metric("fleet")
    replicas_draining: int = metric("fleet")
    replicas_dead: int = metric("fleet")
    routed: int = metric("fleet", "counter")
    routed_failed: int = metric("fleet", "counter")
    hedges_issued: int = metric("fleet", "counter")
    hedges_won: int = metric("fleet", "counter")
    failovers: int = metric("fleet", "counter")
    quota_rejections: int = metric("fleet")
    quota_rejections_by_tenant: dict[str, int] = metric("fleet", default=dict)
    rolling_swaps: int = metric("fleet", "counter")
    per_replica: dict[int, dict] = metric("fleet", default=dict)

    _DERIVED = ServeStats._DERIVED + ("hedge_rate", "hedge_win_rate")

    @property
    def hedge_rate(self) -> float:
        """Fraction of routed requests that issued a hedge leg."""
        return self.hedges_issued / self.routed if self.routed else 0.0

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of issued hedges that beat their primary."""
        return self.hedges_won / self.hedges_issued if self.hedges_issued else 0.0

    def summary(self) -> str:
        lines = [
            "fleet stats",
            f"  replicas    total={self.replicas}  active={self.replicas_active}  "
            f"draining={self.replicas_draining}  dead={self.replicas_dead}",
            f"  routing     routed={self.routed}  failed={self.routed_failed}  "
            f"failovers={self.failovers}  rolling_swaps={self.rolling_swaps}",
            f"  hedging     issued={self.hedges_issued} "
            f"(rate={self.hedge_rate:.3f})  won={self.hedges_won} "
            f"(win_rate={self.hedge_win_rate:.3f})",
        ]
        if self.quota_rejections:
            per_tenant = "  ".join(
                f"{tenant}:{count}"
                for tenant, count in sorted(self.quota_rejections_by_tenant.items())
            )
            lines.append(
                f"  quotas      rejections={self.quota_rejections}  {per_tenant}"
            )
        for rid in sorted(self.per_replica):
            snap = self.per_replica[rid]
            lines.append(
                f"  replica {rid}   {snap['state']:<9}"
                f"ewma={snap['ewma_ms']:.2f}ms  "
                f"dispatched={snap['dispatched']}  hedges={snap['hedges']}  "
                f"wins={snap['wins']}  failures={snap['failures']}"
            )
        return "\n".join(lines) + "\n" + super().summary()


@dataclass(frozen=True)
class FleetHealth:
    """Operator-facing fleet liveness snapshot (JSON-friendly).

    ``status`` is ``"ok"`` (every replica active and closed), ``"degraded"``
    (any replica dead/draining, any breaker not closed, or any replica's
    own ``health()`` degraded — the fleet still answers), or ``"down"``
    (no replica can take traffic).
    """

    status: str
    replicas: dict[int, dict]
    open_breakers: list[int]
    hedge_rate: float
    quota_rejections: int
    quotas: dict | None

    def to_dict(self) -> dict:
        return fields_as_json(self)
