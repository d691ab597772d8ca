"""Seeded load generation: one schedule → driver → report core.

A :class:`ZipfTenantSchedule` fixes who arrives, when, asking which
query row; :func:`drive_schedule` runs its positions on one thread per
client, turning whatever each request raises into exactly one typed
outcome (:data:`OUTCOMES`); the :class:`ScheduleReport`'s per-position
arrays are the one source of every count, percentile and recall score.
Report latency is client-side on ``time.perf_counter``: from the due
time when the driver paces (lateness, send − due, kept beside it), from
send otherwise.  ``ServeStats.latency_*`` stays enqueue → completion.

The shapes over that core are :func:`run_open_loop`,
:func:`run_closed_loop`, :func:`repro.router.run_fleet_closed_loop` and
:func:`repro.stream.run_mixed_closed_loop`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.server import CagraServer
from repro.serve.stats import latency_summary

__all__ = [
    "OUTCOMES",
    "ScheduleReport",
    "ZipfTenantSchedule",
    "drive_schedule",
    "make_zipf_schedule",
    "run_closed_loop",
    "run_open_loop",
]

#: The typed outcome every scheduled request ends with.  A request that
#: raises counts as its exception's ``outcome`` attribute
#: (``ServerOverloaded`` → rejected, ``TenantOverQuota`` → quota,
#: ``RequestTimeout`` → timed_out); any other exception is ``"failed"``.
OUTCOMES = ("ok", "rejected", "quota", "timed_out", "failed")


@dataclass(frozen=True)
class ZipfTenantSchedule:
    """A seeded multi-tenant arrival schedule (who, when, asking what).

    One type for every load shape: a single tenant with round-robin rows
    (:meth:`round_robin`) is the plain open loop, or — all due at zero —
    a closed loop's back-to-back positions.

    Attributes:
        arrival_s: ``(N,)`` cumulative arrival offsets in seconds from
            the start of the run (each position's due time).
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

    @classmethod
    def round_robin(
        cls, num_requests: int, num_rows: int, arrival_s=None,
        rate_qps: float = 0.0, seed: int = 0,
    ) -> "ZipfTenantSchedule":
        """One tenant asking rows ``0, 1, …`` of a ``num_rows`` pool in
        turn; due at ``arrival_s`` (all at zero when omitted)."""
        if arrival_s is None:
            arrival_s = np.zeros(num_requests)
        return cls(
            arrival_s=np.asarray(arrival_s, dtype=np.float64),
            tenants=np.zeros(num_requests, dtype=np.int64),
            query_rows=np.arange(num_requests, dtype=np.int64) % num_rows,
            num_tenants=1, zipf_s=0.0, rate_qps=rate_qps, seed=seed,
        )

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
    schedule, on any platform where numpy's ``default_rng`` (PCG64)
    stream is stable.
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
class ScheduleReport:
    """What happened to every position of one driven schedule.

    Every array has length ``len(schedule)`` and is indexed by schedule
    position, so two runs of one schedule compare element-wise.

    Attributes:
        shape: the workload shape that drove it (``"open"``, ``"closed"``,
            ``"fleet"``, ``"mixed"``).
        schedule: the schedule driven (due times, tenants, query rows).
        outcome: ``(N,)`` one of :data:`OUTCOMES` per position.
        op: ``(N,)`` ``"search"``, ``"insert"`` or ``"delete"``.
        latency_ms: ``(N,)`` client-side latency — from the due time when
            ``paced``, else from send.
        lateness_ms: ``(N,)`` send − due time when ``paced`` (0 otherwise).
        indices: ``(N, w)`` ids each ``ok`` position returned (a search's
            neighbours, a write's row id), padded with -1.
        replica / hedged / hedge_won: ``(N,)`` the router's winning
            replica (-1 when none), whether a hedge leg was issued,
            whether it won.
        error: ``(N,)`` ``repr`` of what a position raised (None if ok).
        paced: the driver slept to due times.
        duration_seconds: first client start to last client join.
    """

    shape: str
    schedule: ZipfTenantSchedule
    outcome: np.ndarray
    op: np.ndarray
    latency_ms: np.ndarray
    lateness_ms: np.ndarray
    indices: np.ndarray
    replica: np.ndarray
    hedged: np.ndarray
    hedge_won: np.ndarray
    error: np.ndarray
    paced: bool
    duration_seconds: float

    def __len__(self) -> int:
        return int(self.outcome.shape[0])

    def count(self, outcome: str, op: str | None = None) -> int:
        """Positions that ended in ``outcome`` (and are ``op``, if given)."""
        mask = self.outcome == outcome
        if op is not None:
            mask &= self.op == op
        return int(mask.sum())

    @property
    def achieved_qps(self) -> float:
        return self.count("ok") / self.duration_seconds if self.duration_seconds else 0.0

    def latencies_ms(self, *ops: str) -> np.ndarray:
        """Latency of every ``ok`` position of ``ops`` (searches by default)."""
        keep = (self.outcome == "ok") & np.isin(self.op, ops or ("search",))
        return self.latency_ms[keep]

    def latency_percentile_ms(self, q: float, *ops: str) -> float:
        return latency_summary(self.latencies_ms(*ops), (q,))[f"p{q:g}"]

    def answers(self, op: str = "search") -> tuple[np.ndarray, np.ndarray]:
        """``(query_rows, indices)`` of every ``ok`` position of ``op`` —
        what recall is scored on (a write's id is its ``indices[:, 0]``)."""
        keep = (self.outcome == "ok") & (self.op == op)
        return self.schedule.query_rows[keep], self.indices[keep]

    def per_tenant(self, outcome: str) -> dict[str, int]:
        """Tenant name → that tenant's positions that ended in ``outcome``."""
        return {
            self.schedule.tenant_name(tenant): int(np.sum(self.outcome[positions] == outcome))
            for tenant, positions in self.schedule.per_tenant_positions().items()
        }

    def summary(self) -> str:
        counts = " ".join(f"{name}={self.count(name)}" for name in OUTCOMES)
        parts = [f"{self.shape} load: {len(self)} scheduled, {counts} in "
                 f"{self.duration_seconds:.2f}s ({self.achieved_qps:,.0f} qps)"]
        for op in sorted(set(self.op)):
            latency = latency_summary(self.latencies_ms(op))
            parts.append(
                f"{op} latency (client, from {'due' if self.paced else 'send'}) "
                f"p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
                f"p99={latency['p99']:.2f}ms"
            )
        if self.paced:
            parts.append(f"lateness p95={latency_summary(self.lateness_ms)['p95']:.2f}ms")
        if self.hedged.any():
            parts.append(f"hedged={self.hedged.sum()} hedge_wins={self.hedge_won.sum()}")
        failed = np.flatnonzero(self.outcome == "failed")
        if failed.size:
            parts.append(f"first failure: {self.error[failed[0]]}")
        return "; ".join(parts)


def drive_schedule(
    send, schedule: ZipfTenantSchedule, clients, *, shape: str, pace: bool = False
) -> ScheduleReport:
    """Run every position of ``schedule`` through ``send``, one thread per
    client; the one load driver behind every shape.

    Args:
        send: ``send(position)`` issues one request on the position's
            client thread and returns its answer (anything with
            ``.indices``, or the ids themselves); whatever it raises is
            caught and becomes the position's outcome.
        schedule: due times (``arrival_s``) and query rows per position.
        clients: one sequence of positions per client thread, each run
            in order; together they cover every position exactly once.
        shape: the label the report carries.
        pace: start each client at its first due time and sleep to every
            later one; latency is then measured from the due time.
    """
    n = len(schedule)
    clients = [[int(pos) for pos in positions] for positions in clients if len(positions)]
    if sorted(pos for positions in clients for pos in positions) != list(range(n)):
        raise ValueError("clients must cover every schedule position exactly once")
    outcome, error, answers = np.empty(n, dtype=object), np.empty(n, dtype=object), [None] * n
    latency, lateness = np.zeros(n), np.zeros(n)
    lock = threading.Lock()

    def client(positions: list[int]) -> None:
        for pos in positions:
            if pace:
                time.sleep(max(0.0, start + schedule.arrival_s[pos] - time.perf_counter()))
            sent = time.perf_counter()
            due = start + schedule.arrival_s[pos] if pace else sent
            try:
                answer, result, raised = send(pos), "ok", None
            except Exception as exc:  # one outcome per request, never a lost thread
                answer, result, raised = None, getattr(exc, "outcome", "failed"), repr(exc)
            ended = time.perf_counter()
            with lock:
                outcome[pos], error[pos], answers[pos] = result, raised, answer
                latency[pos], lateness[pos] = (ended - due) * 1e3, (sent - due) * 1e3

    threads = sorted(
        (schedule.arrival_s[positions[0]], c, threading.Thread(
            target=client, args=(positions,), name=f"{shape}-client-{c}"))
        for c, positions in enumerate(clients)
    )
    start = time.perf_counter()
    for first_due, _, thread in threads:
        if pace:
            time.sleep(max(0.0, start + first_due - time.perf_counter()))
        thread.start()
    for _, _, thread in threads:
        thread.join()
    duration = time.perf_counter() - start

    ids = [np.atleast_1d(getattr(a, "indices", a)) if a is not None else [] for a in answers]
    indices = np.full((n, max(map(len, ids), default=0)), -1, dtype=np.int64)
    for pos, row in enumerate(ids):
        indices[pos, : len(row)] = row
    return ScheduleReport(
        shape=shape, schedule=schedule, outcome=outcome,
        op=np.full(n, "search", dtype=object), latency_ms=latency,
        lateness_ms=lateness, indices=indices,
        replica=np.array([getattr(a, "replica", -1) for a in answers], dtype=np.int64),
        hedged=np.array([getattr(a, "hedged", False) for a in answers], dtype=bool),
        hedge_won=np.array([getattr(a, "hedge_won", False) for a in answers], dtype=bool),
        error=error, paced=pace, duration_seconds=duration,
    )


def _searcher(server: CagraServer, queries, schedule, k, timeout_ms):
    """The one-server shapes' ``send``: search the position's query row."""

    def send(pos: int):
        return server.search(queries[schedule.query_rows[pos]], k=k, timeout_ms=timeout_ms)

    return send


def run_open_loop(
    server: CagraServer,
    queries: np.ndarray,
    rate_qps: float,
    num_requests: int,
    k: int | None = None,
    timeout_ms: float | None = None,
    seed: int = 0,
) -> ScheduleReport:
    """Poisson (open-loop) load: arrivals ignore completions.

    Every request is its own client, started at its due time, so a slow
    answer never delays the next arrival; latency runs from the due time.

    Args:
        server: a started :class:`CagraServer`.
        queries: ``(Q, dim)`` query pool, cycled round-robin.
        rate_qps: mean arrival rate; gaps are ``Exponential(1/rate)``.
        num_requests: total submissions.
        k / timeout_ms: forwarded to :meth:`CagraServer.search`.
        seed: seeds the arrival-schedule Generator (deterministic).
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be > 0")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    queries = np.atleast_2d(queries)
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_qps, size=num_requests)
    schedule = ZipfTenantSchedule.round_robin(
        num_requests, queries.shape[0], np.cumsum(gaps), rate_qps, seed
    )
    send = _searcher(server, queries, schedule, k, timeout_ms)
    clients = [[pos] for pos in range(num_requests)]
    return drive_schedule(send, schedule, clients, pace=True, shape="open")


def run_closed_loop(
    server: CagraServer,
    queries: np.ndarray,
    num_clients: int,
    requests_per_client: int,
    k: int | None = None,
    timeout_ms: float | None = None,
) -> ScheduleReport:
    """Closed-loop load: each of ``num_clients`` workers submits its next
    query as soon as the previous one resolves (think-time zero)."""
    if num_clients < 1 or requests_per_client < 1:
        raise ValueError("num_clients and requests_per_client must be >= 1")
    queries = np.atleast_2d(queries)
    n = num_clients * requests_per_client
    schedule = ZipfTenantSchedule.round_robin(n, queries.shape[0])
    send = _searcher(server, queries, schedule, k, timeout_ms)
    per_client = requests_per_client
    clients = [range(c * per_client, (c + 1) * per_client) for c in range(num_clients)]
    return drive_schedule(send, schedule, clients, shape="closed")
