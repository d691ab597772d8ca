"""The replicated shard router: load-aware dispatch, hedged requests,
failover, per-tenant quotas, and rolling upgrades over N replicas.

:class:`ShardRouter` fronts a fleet of :class:`~repro.serve.CagraServer`
replicas (each a full server over the same logical index) and gives the
caller one synchronous ``search()`` that survives slow, flaky, and dead
replicas.  The request path, in order:

0. **Validation** — a malformed request (wrong dim, NaN / inf, ``k < 1``,
   more than one query) raises the ``ValueError`` of
   :func:`~repro.core.validation.validate_request` before anything below
   happens: no token is charged, no replica sees it, and no breaker or
   failure counter can be moved by what a client chose to send.
1. **Admission** — the tenant's token bucket is charged
   (:class:`~repro.router.quota.QuotaLedger`); an empty bucket raises
   :class:`~repro.router.quota.TenantOverQuota` before the request
   consumes a sequence number, a queue slot, or a hedge leg.
2. **Dispatch** — available replicas (active; draining only as a last
   resort; dead never) whose breakers admit traffic are ordered by the
   configured policy: ``load_aware`` picks the minimum
   ``EWMA latency × (1 + in-flight + queue depth)`` score,
   ``round_robin`` rotates by the request sequence number.  The
   ``router.dispatch`` fault point fires per dispatch attempt — a
   ``raise`` there is a leg failure and triggers failover.
3. **Hedge** — when the primary leg has not resolved within the hedge
   delay (fixed, or derived from the primary's latency EWMA ×
   ``hedge_latency_factor``, clamped to ``[floor, cap]``, plus seeded
   ``Philox(seed, sequence)`` jitter), one backup leg is issued to the
   next-best replica (``router.hedge`` fault point; a ``raise`` cancels
   the hedge).  The first leg to resolve ``DONE`` — scanning legs in
   issue order, so ties break deterministically — wins, **exactly
   once**; the loser is detached (its replica still finishes and caches
   the answer, but nothing of it reaches this caller).
4. **Failover** — when every outstanding leg has *failed* (not merely
   slow), the router re-dispatches to the best untried replica, up to
   ``max_attempts`` sequential attempts.  Leg outcomes feed the losing
   replica's circuit breaker and the winner's latency EWMA.

Everything the fleet does is observable: :meth:`ShardRouter.stats`
returns a :class:`~repro.router.stats.RouterStats` (per-server counters
summed fleet-wide + router-tier counters + per-replica snapshots) and
:meth:`ShardRouter.health` a :class:`~repro.router.stats.FleetHealth`.
:meth:`ShardRouter.rolling_swap` upgrades the fleet to a new index one
replica at a time — drain, atomic :meth:`~repro.serve.CagraServer.
swap_index`, reactivate — so some replica is always serving.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.resilience import CircuitBreaker, FaultInjector, resolve_fault_plan
from repro.router.config import RouterConfig
from repro.router.quota import QuotaLedger
from repro.router.replica import ACTIVE, DEAD, DRAINING, Replica
from repro.router.stats import FleetHealth, RouterStats
from repro.serve.config import ServeConfig
from repro.serve.server import CagraServer, RequestTimeout, ServeError
from repro.serve.stats import MetricSet, fold_fleet

__all__ = ["NoReplicaAvailable", "RoutedResult", "ShardRouter"]


class NoReplicaAvailable(ServeError):
    """No replica can take this request (all dead, or breakers open)."""


@dataclass(frozen=True)
class RoutedResult:
    """One fleet-answered query.

    Attributes:
        indices: ``(k,)`` neighbor ids from the winning leg.
        distances: matching distances.
        from_cache: the winning replica served it from its result cache.
        latency_ms: router-observed end-to-end latency (submit to the
            winning leg's resolution — the number hedging improves).
        replica: id of the replica whose leg won.
        hedged: a backup leg was issued for this request.
        hedge_won: the backup leg (not the primary) produced the answer.
    """

    indices: np.ndarray
    distances: np.ndarray
    from_cache: bool
    latency_ms: float
    replica: int
    hedged: bool
    hedge_won: bool


class _Leg:
    """One outstanding dispatch of a request to one replica.

    Owned by the single routing call that created it — no lock; the
    router thread is the only reader/writer.
    """

    __slots__ = ("replica", "handle", "hedge", "started", "settled")

    def __init__(self, replica: Replica, handle, hedge: bool):
        self.replica = replica
        self.handle = handle
        self.hedge = hedge
        self.started = time.monotonic()
        self.settled = False  # router-side accounting done for this leg


class ShardRouter:
    """Fleet frontend over N :class:`~repro.serve.CagraServer` replicas."""

    def __init__(self, servers, config: RouterConfig | None = None):
        if not servers:
            raise ValueError("a router needs at least one replica server")
        self.config = config or RouterConfig()
        self._replicas = [
            Replica(
                rid,
                server,
                ewma_alpha=self.config.ewma_alpha,
                ewma_initial_ms=self.config.ewma_initial_ms,
                breaker=(
                    CircuitBreaker(
                        failure_threshold=self.config.breaker_failure_threshold,
                        cooldown_s=self.config.breaker_cooldown_s,
                    )
                    if self.config.breaker_failure_threshold >= 1
                    else None
                ),
            )
            for rid, server in enumerate(servers)
        ]
        self._quotas = (
            QuotaLedger(self.config.quota_rate_qps, self.config.quota_burst)
            if self.config.quota_rate_qps > 0.0
            else None
        )
        plan = resolve_fault_plan(self.config.fault_plan)
        self._fault = FaultInjector(plan) if plan is not None else None
        self._stats = MetricSet(RouterStats)
        self._lock = threading.Lock()
        self._seq = 0
        self._swap_lock = threading.Lock()  # serializes rolling swaps

    # ------------------------------------------------------------------
    # construction helpers / life cycle
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        index,
        num_replicas: int = 3,
        config: RouterConfig | None = None,
        serve_config: ServeConfig | None = None,
        search_config=None,
        on_stage=None,
    ) -> "ShardRouter":
        """Stand up ``num_replicas`` servers over one shared index.

        Every replica serves the same in-memory index object (replicas
        exist for scheduling capacity and failure isolation, not data
        partitioning — sharding lives *inside* each server's index).
        """
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        servers = [
            CagraServer(
                index,
                config=serve_config,
                search_config=search_config,
                on_stage=on_stage,
            )
            for _ in range(num_replicas)
        ]
        return cls(servers, config=config)

    def start(self) -> "ShardRouter":
        for replica in self._replicas:
            if replica.state != DEAD:
                replica.server.start()
        return self

    def stop(self, drain: bool = True) -> None:
        for replica in self._replicas:
            replica.server.stop(drain=drain)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=True)

    @property
    def replicas(self) -> list[Replica]:
        """The fleet, in replica-id order (read-only view)."""
        return list(self._replicas)

    def kill_replica(self, replica_id: int) -> None:
        """Chaos hook: SIGKILL-equivalent on one replica (see
        :meth:`Replica.kill`); the router routes around the corpse."""
        self._replicas[replica_id].kill()

    # ------------------------------------------------------------------
    # dispatch policy
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    def _available(self) -> list[Replica]:
        """Replicas eligible for new legs: active ones whose breaker
        admits; draining replicas only when nothing active admits (the
        fleet degrades before it refuses)."""
        active, draining = [], []
        for replica in self._replicas:
            state = replica.state
            if state == DEAD:
                continue
            breaker = replica.breaker
            if breaker is not None and not breaker.allow():
                continue
            (active if state == ACTIVE else draining).append(replica)
        return active if active else draining

    def _ordered(self, seq: int) -> list[Replica]:
        """Candidates in dispatch order for request ``seq``."""
        candidates = self._available()
        if not candidates:
            return []
        if self.config.dispatch == "round_robin":
            rot = seq % len(candidates)
            return candidates[rot:] + candidates[:rot]
        return sorted(
            candidates, key=lambda r: (r.load_score(), r.replica_id)
        )

    def _hedge_delay_s(self, primary: Replica, seq: int) -> float:
        """Hedge delay for ``seq`` dispatched primarily to ``primary``:
        fixed or EWMA-derived, plus seeded deterministic jitter."""
        cfg = self.config
        if cfg.hedge_delay_ms > 0.0:
            delay_ms = cfg.hedge_delay_ms
        else:
            delay_ms = min(
                cfg.hedge_delay_cap_ms,
                max(
                    cfg.hedge_delay_floor_ms,
                    primary.ewma_ms * cfg.hedge_latency_factor,
                ),
            )
        if cfg.hedge_jitter_ms > 0.0:
            rng = np.random.default_rng([cfg.seed, seq])
            delay_ms += cfg.hedge_jitter_ms * float(rng.random())
        return delay_ms / 1e3

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int | None = None,
        tenant: str = "default",
        timeout_ms: float | None = None,
        arrival_s: float | None = None,
    ) -> RoutedResult:
        """Route one query through the fleet; block for the answer.

        Args:
            query: ``(dim,)`` float32 query vector.
            k: neighbors to return (each server's ``default_k`` when
                omitted).
            tenant: admission-quota identity; over-quota raises
                :class:`TenantOverQuota` without touching a replica.
            timeout_ms: end-to-end deadline (router default when None;
                0 = no deadline).
            arrival_s: virtual arrival time for the quota clock (load
                generators pass the scheduled arrival so admission
                decisions replay exactly; None = wall clock).

        Raises:
            ValueError: malformed request (see
                :meth:`CagraServer.check_request`); costs nobody anything.
            TenantOverQuota: admission refused.
            NoReplicaAvailable: nothing to dispatch to.
            RequestTimeout: deadline passed with no winning leg.
            ServeError: every attempt failed (last leg's error).
        """
        # Replicas serve one logical index, so any of them can vouch for
        # the request's shape; a dead one still knows its dim.
        query, _ = self._replicas[0].server.check_request(query, k)
        if self._quotas is not None:
            self._quotas.admit(tenant, now=arrival_s)
        seq = self._next_seq()
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        started = time.monotonic()
        deadline = started + timeout_ms / 1e3 if timeout_ms else None

        legs: list[_Leg] = []
        tried: set[int] = set()
        any_event = threading.Event()
        attempts = 0
        last_error: BaseException | None = None
        hedged = False
        hedge_at: float | None = None

        primary, err = self._dispatch_leg(
            query, k, tenant, seq, tried, deadline, hedge=False
        )
        if primary is None:
            self._stats.record(routed=1, routed_failed=1)
            raise err if err is not None else NoReplicaAvailable(
                "no replica available for dispatch"
            )
        attempts += 1
        legs.append(primary)
        primary.handle.add_watcher(any_event)
        if self.config.hedge and len(self._replicas) > 1:
            hedge_at = primary.started + self._hedge_delay_s(
                primary.replica, seq
            )
        if err is not None:
            last_error = err

        while True:
            winner = self._scan_legs(legs)
            if isinstance(winner, _Leg):
                return self._resolve_winner(winner, legs, started, hedged)
            unresolved, leg_error = winner
            if leg_error is not None:
                last_error = leg_error

            if unresolved == 0:
                # Every outstanding leg failed: fail over or give up.
                if attempts < self.config.max_attempts:
                    leg, err = self._dispatch_leg(
                        query, k, tenant, seq, tried, deadline, hedge=False
                    )
                    if err is not None:
                        last_error = err
                    if leg is not None:
                        attempts += 1
                        self._stats.record(failovers=1)
                        legs.append(leg)
                        leg.handle.add_watcher(any_event)
                        continue
                self._stats.record(routed=1, routed_failed=1)
                raise last_error if last_error is not None else ServeError(
                    "all dispatch attempts failed without a recorded error"
                )

            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self._abandon_unresolved(legs)
                self._stats.record(routed=1, routed_failed=1)
                raise RequestTimeout(
                    f"no replica answered within {timeout_ms:.1f}ms"
                )

            wait = None if deadline is None else deadline - now
            if not hedged and hedge_at is not None:
                if now >= hedge_at:
                    hedged = self._issue_hedge(
                        query, k, tenant, seq, tried, deadline, legs, any_event
                    )
                    if not hedged:
                        hedge_at = None  # nobody to hedge to; stop trying
                    continue
                until_hedge = hedge_at - now
                wait = until_hedge if wait is None else min(wait, until_hedge)
            any_event.wait(wait)
            any_event.clear()

    # ------------------------------------------------------------------
    # request-path helpers (all called from the routing caller's thread)
    # ------------------------------------------------------------------
    def _dispatch_leg(
        self, query, k, tenant, seq, tried, deadline, hedge
    ) -> tuple[_Leg | None, BaseException | None]:
        """Submit one leg to the best untried replica.

        Returns ``(leg, last_error)``; ``leg`` is None when no untried
        replica accepted (candidates may have failed at the fault point
        or at submission — each such failure feeds that replica's
        breaker and is returned as ``last_error``).
        """
        last_error: BaseException | None = None
        for replica in self._ordered(seq):
            if replica.replica_id in tried:
                continue
            tried.add(replica.replica_id)
            point = "router.hedge" if hedge else "router.dispatch"
            try:
                if self._fault is not None:
                    self._fault.fire(
                        point, replica=replica.replica_id, tenant=tenant
                    )
                timeout_ms = None
                if deadline is not None:
                    timeout_ms = max(0.1, (deadline - time.monotonic()) * 1e3)
                replica.begin_leg(hedge=hedge)
                try:
                    handle = replica.server.submit(
                        query, k=k, timeout_ms=timeout_ms
                    )
                except BaseException:
                    replica.end_leg(failed=True)
                    raise
            except Exception as exc:
                replica.record_outcome(False)
                last_error = exc
                if hedge:
                    return None, last_error  # one hedge try, no cascade
                continue
            return _Leg(replica, handle, hedge), last_error
        return None, last_error

    def _scan_legs(self, legs):
        """First ``DONE`` leg in issue order wins (exactly once).

        Returns the winning :class:`_Leg`, or ``(unresolved_count,
        last_error)`` when nobody has won yet.  Failed legs are settled
        here: breaker charged, leg accounting closed.
        """
        unresolved = 0
        last_error: BaseException | None = None
        for leg in legs:
            if leg.settled:
                continue
            if not leg.handle.done():
                unresolved += 1
                continue
            try:
                leg.handle.result(timeout=0.0)
            except Exception as exc:
                leg.settled = True
                leg.replica.end_leg(failed=True)
                leg.replica.record_outcome(False)
                last_error = exc
                continue
            return leg
        return unresolved, last_error

    def _resolve_winner(
        self, winner: _Leg, legs, started: float, hedged: bool
    ) -> RoutedResult:
        result = winner.handle.result(timeout=0.0)
        winner.settled = True
        winner.replica.end_leg(won=True)
        winner.replica.record_outcome(True)
        winner.replica.observe_latency(
            (time.monotonic() - winner.started) * 1e3
        )
        self._settle_losers(legs)
        elapsed = time.monotonic() - started
        self._stats.record(routed=1, hedges_won=int(winner.hedge), latency_s=elapsed)
        return RoutedResult(
            indices=result.indices,
            distances=result.distances,
            from_cache=result.from_cache,
            latency_ms=elapsed * 1e3,
            replica=winner.replica.replica_id,
            hedged=hedged,
            hedge_won=winner.hedge,
        )

    def _settle_losers(self, legs) -> None:
        """Detach every non-winning leg (exactly-once resolution).

        A loser that already resolved is fully accounted (EWMA on
        success, breaker on failure).  A loser still in flight is
        *released*: its in-flight count drops now and its eventual
        outcome is discarded — the replica's own server still completes
        (and caches) the work, but neither its latency nor its verdict
        reaches the fleet signals, because the router stopped watching.
        """
        for leg in legs:
            if leg.settled:
                continue
            leg.settled = True
            if leg.handle.done():
                try:
                    leg.handle.result(timeout=0.0)
                except Exception:
                    leg.replica.end_leg(failed=True)
                    leg.replica.record_outcome(False)
                else:
                    leg.replica.end_leg()
                    leg.replica.record_outcome(True)
                    leg.replica.observe_latency(
                        (time.monotonic() - leg.started) * 1e3
                    )
            else:
                leg.replica.end_leg()

    def _abandon_unresolved(self, legs) -> None:
        """Deadline passed: time out every live leg and close accounting.

        Each leg carried (a truncation of) the same deadline, so
        ``result(timeout=0)`` transitions it to ``TIMED_OUT`` server-side
        — nothing is left half-watched."""
        for leg in legs:
            if leg.settled:
                continue
            leg.settled = True
            try:
                leg.handle.result(timeout=0.0)
            except Exception:
                leg.replica.end_leg(failed=True)
                leg.replica.record_outcome(False)
            else:
                leg.replica.end_leg()
                leg.replica.record_outcome(True)

    def _issue_hedge(
        self, query, k, tenant, seq, tried, deadline, legs, any_event
    ) -> bool:
        """Send the backup leg to the next-best untried replica."""
        leg, _err = self._dispatch_leg(
            query, k, tenant, seq, tried, deadline, hedge=True
        )
        if leg is None:
            return False
        self._stats.record(hedges_issued=1)
        legs.append(leg)
        leg.handle.add_watcher(any_event)
        return True

    # ------------------------------------------------------------------
    # rolling upgrade
    # ------------------------------------------------------------------
    def rolling_swap(self, new_index) -> int:
        """Upgrade the fleet to ``new_index`` one replica at a time.

        For each live replica in id order: mark it draining (new legs
        route elsewhere), wait until its in-flight legs and server queue
        are empty (bounded by ``drain_timeout_s`` — the swap itself is
        atomic and in-flight batches finish on the old snapshot, so
        proceeding after a wedged drain is safe), atomically
        ``swap_index``, and reactivate.  At least one replica serves the
        old or new index at every instant; concurrent calls serialize.

        Returns the number of replicas swapped (dead ones are skipped).
        """
        poll = self.config.drain_poll_ms / 1e3
        swapped = 0
        with self._swap_lock:
            for replica in self._replicas:
                if replica.state == DEAD:
                    continue
                replica.mark_draining()
                drain_deadline = time.monotonic() + self.config.drain_timeout_s
                while time.monotonic() < drain_deadline:
                    if (
                        replica.inflight == 0
                        and replica.server.queue_depth() == 0
                    ):
                        break
                    time.sleep(poll)
                try:
                    replica.server.swap_index(new_index)
                finally:
                    replica.mark_active()
                swapped += 1
            self._stats.record(rolling_swaps=1)
        return swapped

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> FleetHealth:
        """Fleet liveness snapshot (see :class:`FleetHealth`)."""
        snapshots = {r.replica_id: r.snapshot() for r in self._replicas}
        open_breakers = [
            r.replica_id
            for r in self._replicas
            if r.breaker is not None
            and r.breaker.snapshot()["state"] != CircuitBreaker.CLOSED
        ]
        states = [snap["state"] for snap in snapshots.values()]
        server_health = [
            r.server.health() for r in self._replicas if r.state != DEAD
        ]
        can_serve = [
            r
            for r in self._replicas
            if r.state in (ACTIVE, DRAINING)
            and r.replica_id not in open_breakers
        ]
        if not can_serve:
            status = "down"
        elif (
            open_breakers
            or any(s != ACTIVE for s in states)
            or any(h["status"] != "ok" for h in server_health)
        ):
            status = "degraded"
        else:
            status = "ok"
        return FleetHealth(
            status=status,
            replicas=snapshots,
            open_breakers=open_breakers,
            hedge_rate=RouterStats(**self._stats.snapshot()).hedge_rate,
            quota_rejections=(
                self._quotas.total_rejections if self._quotas is not None else 0
            ),
            quotas=self._quotas.snapshot() if self._quotas is not None else None,
        )

    def stats(self) -> RouterStats:
        """Fleet dashboard (see :class:`RouterStats`): the router tier's
        own counters and router-observed latency, every replica-folded
        :class:`~repro.serve.ServeStats` field (overriding the router
        set's empty base entries), and the replica / quota census."""
        values = self._stats.snapshot()
        values.update(fold_fleet([r.server.stats() for r in self._replicas]))
        states = [r.state for r in self._replicas]
        quotas = self._quotas
        return RouterStats(
            **values,
            replicas=len(self._replicas),
            replicas_active=states.count(ACTIVE),
            replicas_draining=states.count(DRAINING),
            replicas_dead=states.count(DEAD),
            quota_rejections=quotas.total_rejections if quotas is not None else 0,
            quota_rejections_by_tenant=(
                dict(quotas.snapshot()["rejected"]) if quotas is not None else {}
            ),
            per_replica={r.replica_id: r.snapshot() for r in self._replicas},
        )

    def __repr__(self) -> str:
        states = [r.state for r in self._replicas]
        return (
            f"ShardRouter(replicas={len(self._replicas)}, "
            f"active={states.count(ACTIVE)}, dispatch="
            f"{self.config.dispatch!r}, hedge={self.config.hedge})"
        )
