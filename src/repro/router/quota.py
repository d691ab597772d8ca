"""Per-tenant admission quotas (token buckets).

Multi-tenant fairness is an *admission* concern: one tenant hammering
the fleet must be rejected before its requests consume queue slots,
batch positions, or hedge legs that belong to everyone else.  The
router therefore checks the tenant's :class:`TokenBucket` first thing in
:meth:`~repro.router.ShardRouter.search` — an over-quota request costs
one dictionary lookup and raises a typed :class:`TenantOverQuota`
without ever touching a replica.

The bucket clock is injectable two ways: per-bucket (``clock=``, like
:class:`~repro.resilience.CircuitBreaker`) and per-call (``now=``).
The per-call form is what makes quota outcomes *exactly* reproducible:
the fleet load generator passes each request's scheduled arrival time
(see :func:`repro.serve.loadgen.make_zipf_schedule`), so a reference
simulation replaying the same per-tenant arrival sequence through a
fresh bucket predicts every admit/reject decision bit-for-bit —
scheduling noise cannot leak into quota accounting.
"""

from __future__ import annotations

import threading
import time

from repro.serve.server import ServeError

__all__ = ["QuotaLedger", "TenantOverQuota", "TokenBucket", "expected_quota_outcomes"]


class TenantOverQuota(ServeError):
    """The tenant's token bucket is empty; the request was not admitted.

    Attributes:
        tenant: the rejected tenant id.
        retry_after_s: seconds until the bucket will hold one token
            again (at the configured refill rate) — the backoff hint a
            well-behaved client should honour.
    """

    outcome = "quota"  # what a load report counts it as

    def __init__(self, tenant: str, retry_after_s: float):
        super().__init__(
            f"tenant {tenant!r} is over its admission quota "
            f"(retry after {retry_after_s:.3f}s)"
        )
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Refill happens lazily on :meth:`try_acquire` from the elapsed time
    since the previous call; time never runs backwards (a stale ``now``
    is clamped to the last observed instant), so out-of-order observers
    cannot mint tokens.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._last = None  # set on first acquire: pre-run idle mints nothing

    def try_acquire(self, now: float | None = None, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; refill from elapsed time first.

        ``now`` overrides the bucket clock for this call (virtual-time
        mode); ``None`` reads the injected clock.
        """
        with self._lock:
            instant = self._clock() if now is None else float(now)
            if self._last is None:
                self._last = instant
            instant = max(instant, self._last)
            self._tokens = min(
                self.burst, self._tokens + (instant - self._last) * self.rate
            )
            self._last = instant
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after_s(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available at the refill rate."""
        with self._lock:
            deficit = max(0.0, tokens - self._tokens)
        return deficit / self.rate

    def snapshot(self) -> dict:
        with self._lock:
            return {"tokens": self._tokens, "rate": self.rate, "burst": self.burst}


class QuotaLedger:
    """Per-tenant :class:`TokenBucket` map plus admit/reject accounting.

    Buckets are created lazily on a tenant's first request, all with the
    same ``rate``/``burst`` (per-tenant tiers would be a config map away;
    the mechanism is tenant-agnostic).  :meth:`admit` either returns
    (admitted, counted) or raises :class:`TenantOverQuota` (rejected,
    counted) — there is no third outcome, which is what lets the
    acceptance test reconcile the ledger against the reference model.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._admitted: dict[str, int] = {}
        self._rejected: dict[str, int] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str, now: float | None = None) -> None:
        """Charge one token to ``tenant`` or raise :class:`TenantOverQuota`."""
        bucket = self._bucket(tenant)
        if bucket.try_acquire(now=now):
            with self._lock:
                self._admitted[tenant] = self._admitted.get(tenant, 0) + 1
            return
        retry_after = bucket.retry_after_s()
        with self._lock:
            self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
        raise TenantOverQuota(tenant, retry_after)

    @property
    def total_rejections(self) -> int:
        with self._lock:
            return sum(self._rejected.values())

    def snapshot(self) -> dict:
        """JSON-friendly per-tenant accounting for the fleet dashboard."""
        with self._lock:
            tenants = sorted(set(self._admitted) | set(self._rejected))
            return {
                "rate_qps": self.rate,
                "burst": self.burst,
                "admitted": {t: self._admitted.get(t, 0) for t in tenants},
                "rejected": {t: self._rejected.get(t, 0) for t in tenants},
            }


def expected_quota_outcomes(schedule, rate_qps: float, burst: float) -> dict[str, int]:
    """Reference replay: tenant name → rejected count for a
    :class:`~repro.serve.loadgen.ZipfTenantSchedule`.

    Feeds each tenant's arrivals, in schedule order and on the virtual
    clock, through a fresh :class:`TokenBucket` — exactly what
    :func:`~repro.router.run_fleet_closed_loop`'s tenant-partitioned
    dispatch guarantees the router's ledger sees — so the prediction is
    exact, not statistical.
    """
    rejected = {}
    for tenant, positions in schedule.per_tenant_positions().items():
        bucket = TokenBucket(rate_qps, burst)
        admitted = [bucket.try_acquire(now=schedule.arrival_s[pos]) for pos in positions]
        rejected[schedule.tenant_name(tenant)] = admitted.count(False)
    return rejected
