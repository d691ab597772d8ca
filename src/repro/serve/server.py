"""Online serving: dynamic micro-batching over any :class:`repro.api.AnnIndex`.

The paper's serving trade-off is batch geometry: single-CTA search wins at
large batches (Fig. 13) and multi-CTA at batch 1 (Fig. 14, Table II), but
online traffic arrives one query at a time.  :class:`CagraServer` bridges
the two regimes: callers submit single queries through a synchronous API,
a bounded queue feeds a scheduler thread that *coalesces* them into
micro-batches — flushing when the batch reaches ``max_batch`` requests or
``max_wait_ms`` after its first request, whichever comes first — and each
flush runs through the served index's unified ``search(...)`` surface
with ``mode="auto"``, which applies the Table II dispatch for CAGRA:

* coalesced batches (size > 1) run the vectorized single-CTA fast path
  (:func:`repro.core.traversal.search_batch_fast`);
* batch-of-1 flushes run the multi-CTA reference path
  (:meth:`CagraIndex.search` with ``algo="multi_cta"``).

Baseline indexes (HNSW, GGNN, GANNS, NSSG, brute force) have one
execution path, so the same server serves them unchanged — the index is
wrapped via :func:`repro.api.as_ann_index` at construction, and every
batch answer carries the int32/float32 + trailing-``INDEX_MASK`` result
contract of :class:`repro.api.SearchResult`.

Around that core sit the production concerns: admission control (full
queue ⇒ :class:`ServerOverloaded`), per-request deadlines (expired ⇒
:class:`RequestTimeout`, dropped without wasting batch slots), an LRU
result cache, hot index swap (:meth:`CagraServer.swap_index` atomically
publishes a new snapshot; in-flight batches finish on the old one), a
graceful drain on shutdown, and a metrics surface
(:meth:`CagraServer.stats`).

Failure handling (``docs/resilience.md``): a malformed request (wrong
dim, NaN / inf, ``k < 1``) is refused at :meth:`CagraServer.submit` and
never joins a batch; a fault the engine raises does not sink the whole
micro-batch either — an execution error bisects the batch and retries
the halves until the failure is isolated to a single request.
When serving a sharded index, ``ServeConfig.on_shard_failure="partial"``
serves degraded results from the surviving shards, an optional per-shard
:class:`~repro.resilience.CircuitBreaker` (closed → open → half-open)
skips repeat offenders up front, and :meth:`CagraServer.health` reports
breaker states plus a rolling failure rate.  The ``serve.execute`` fault
point (:mod:`repro.resilience.faults`, ``ServeConfig.fault_plan`` or
``REPRO_FAULT_PLAN``) makes all of it deterministically testable.

Mutability (``docs/streaming.md``): serve a
:class:`repro.stream.MutableIndex` and the server grows ``insert`` /
``delete`` entry points, freshness gauges in :meth:`CagraServer.stats`,
and (with ``ServeConfig.auto_rebuild``) a background
:class:`~repro.stream.rebuild.Rebuilder` that promotes repaired/rebuilt
bases through :meth:`swap_index` mid-traffic.  Every mutation invalidates
the result cache through the index's mutation listener, so a cached
answer can never resurrect a deleted row or hide a fresh insert.

Typical use::

    with CagraServer(index, ServeConfig(max_batch=64, max_wait_ms=2.0)) as server:
        result = server.search(query, k=10)        # blocking
        handle = server.submit(query, k=10)        # async handle
        ids = handle.result().indices
        print(server.stats().summary())
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import AnnIndex, as_ann_index
from repro.core.config import SearchConfig
from repro.core.graph import INDEX_MASK
from repro.core.sharding import ShardQuorumError
from repro.core.validation import validate_request
from repro.resilience import CircuitBreaker, FaultInjector, resolve_fault_plan
from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.stats import MetricSet, ServeStats

__all__ = [
    "CagraServer",
    "PendingResult",
    "RequestTimeout",
    "ServeError",
    "ServeResult",
    "ServerClosed",
    "ServerOverloaded",
]

#: Grace period the waiting caller gives the scheduler past the request
#: deadline before declaring the timeout itself (lets a batch that is
#: already executing still win the race and deliver a result).
_CLIENT_GRACE_SECONDS = 0.025


class ServeError(RuntimeError):
    """Base class for serving-layer errors."""


class ServerOverloaded(ServeError):
    """The bounded request queue is full (admission control)."""

    outcome = "rejected"  # what a load report counts it as


class RequestTimeout(ServeError):
    """The request's deadline passed before a result was produced."""

    outcome = "timed_out"


class ServerClosed(ServeError):
    """The server is not accepting requests (stopped or never usable)."""


@dataclass(frozen=True)
class ServeResult:
    """One answered query.

    Attributes:
        indices: ``(k,)`` neighbor ids.
        distances: matching distances.
        from_cache: True when served from the result cache without a
            search.
        latency_ms: enqueue-to-completion latency (0 for cache hits).
    """

    indices: np.ndarray
    distances: np.ndarray
    from_cache: bool
    latency_ms: float


class _Request:
    """Internal request record with a first-transition-wins life cycle."""

    PENDING, DONE, TIMED_OUT, FAILED = range(4)

    __slots__ = (
        "query", "k", "enqueue_time", "deadline", "event", "lock",
        "state", "indices", "distances", "error", "latency_seconds",
        "watchers",
    )

    def __init__(self, query: np.ndarray, k: int, deadline: float | None):
        self.query = query
        self.k = k
        self.enqueue_time = time.monotonic()
        self.deadline = deadline
        self.event = threading.Event()
        self.lock = threading.Lock()
        self.state = self.PENDING
        self.indices: np.ndarray | None = None
        self.distances: np.ndarray | None = None
        self.error: BaseException | None = None
        self.latency_seconds = 0.0
        self.watchers: list[threading.Event] = []

    def add_watcher(self, event: threading.Event) -> None:
        """Register an extra event set on resolution (already-resolved
        requests set it immediately).  Lets a caller wait on *any of*
        several requests — the router's hedged wait — without polling."""
        with self.lock:
            if self.state == self.PENDING:
                self.watchers.append(event)
                return
        event.set()

    def _transition(self, state: int) -> bool:
        with self.lock:
            if self.state != self.PENDING:
                return False
            self.state = state
            watchers, self.watchers = self.watchers, []
        self.event.set()
        for watcher in watchers:
            watcher.set()
        return True

    def resolve_done(self, indices: np.ndarray, distances: np.ndarray) -> bool:
        self.indices = indices
        self.distances = distances
        self.latency_seconds = time.monotonic() - self.enqueue_time
        return self._transition(self.DONE)

    def resolve_timeout(self) -> bool:
        return self._transition(self.TIMED_OUT)

    def resolve_failure(self, error: BaseException) -> bool:
        self.error = error
        return self._transition(self.FAILED)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class PendingResult:
    """Handle for a submitted request; ``result()`` blocks until resolved."""

    def __init__(self, request: _Request, stats: MetricSet, from_cache: bool = False):
        self._request = request
        self._stats = stats
        self._from_cache = from_cache

    def done(self) -> bool:
        return self._request.event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); True if resolved.

        Unlike :meth:`result` this never transitions the request — it is
        a pure observation, safe to call from a hedging router that may
        let the *other* leg win.
        """
        return self._request.event.wait(timeout)

    def add_watcher(self, event: threading.Event) -> None:
        """Set ``event`` when this request resolves (immediately if it
        already has).  Enables wait-for-any across several handles."""
        self._request.add_watcher(event)

    def result(self, timeout: float | None = None) -> ServeResult:
        """Wait for the request to resolve and return (or raise) it.

        Args:
            timeout: optional wait bound in *seconds* on top of the
                request's own deadline.  Without a deadline and without
                ``timeout`` this blocks until the server resolves the
                request (shutdown resolves everything).

        Raises:
            RequestTimeout: the request's deadline passed unanswered.
            ServeError: the server failed the request (search error or
                non-draining shutdown); search exceptions propagate
                as-is.
        """
        request = self._request
        budget = timeout
        if request.deadline is not None:
            remaining = max(0.0, request.deadline - time.monotonic())
            grace = remaining + _CLIENT_GRACE_SECONDS
            budget = grace if budget is None else min(budget, grace)
        resolved = request.event.wait(budget)
        if not resolved:
            if request.deadline is not None and request.resolve_timeout():
                self._stats.record(timed_out=1)
            elif request.state == _Request.PENDING:
                # Caller-imposed wait bound only: leave the request live.
                raise RequestTimeout(
                    f"result not ready within the {timeout}s wait bound"
                )
        state = request.state
        if state == _Request.DONE:
            return ServeResult(
                indices=request.indices,
                distances=request.distances,
                from_cache=self._from_cache,
                latency_ms=request.latency_seconds * 1e3,
            )
        if state == _Request.TIMED_OUT:
            raise RequestTimeout("request deadline exceeded")
        raise request.error if request.error is not None else ServeError(
            "request failed without a recorded error"
        )


#: Queue marker that tells the scheduler to exit after the current drain.
_SENTINEL = object()


class CagraServer:
    """A synchronous-API, internally concurrent ANN serving frontend.

    One scheduler thread owns all search execution; callers interact
    through :meth:`submit` / :meth:`search` and never touch the index
    concurrently.  Requests submitted before :meth:`start` simply queue
    up (subject to the same admission control) and are served once the
    scheduler runs.

    The served index may be anything :func:`repro.api.as_ann_index`
    accepts — a :class:`~repro.core.index.CagraIndex`, a
    :class:`~repro.core.sharding.ShardedCagraIndex` (whose per-shard
    :mod:`repro.parallel` fan-out composes with micro-batching), any of
    the baseline indexes (HNSW, GGNN, GANNS, NSSG), a
    :class:`repro.api.BruteForceIndex`, or a pre-built adapter / foreign
    :class:`~repro.api.AnnIndex` implementation.  ``on_stage(name,
    seconds, counters)`` receives one ``serve.batch`` event per executed
    micro-batch plus whatever the underlying search path emits.
    """

    def __init__(
        self,
        index,
        config: ServeConfig | None = None,
        search_config: SearchConfig | None = None,
        on_stage=None,
    ):
        self.config = config or ServeConfig()
        self.search_config = search_config or SearchConfig()
        self._ann = self._wrap(index)
        # Foreign AnnIndex implementations are their own "native" index.
        self._index = getattr(self._ann, "inner", self._ann)
        if self.config.profile:
            # Tuned profiles overlay itopk/search_width/max_iterations
            # (and team_size since profile schema v2);
            # stale/corrupt profiles warn and leave search_config alone.
            from repro.tune import resolve_profile

            tuned = resolve_profile(
                self.config.profile,
                data=self._ann.dataset,
                index_kind=getattr(self._ann, "kind", "cagra"),
                k=self.config.default_k,
            )
            if tuned is not None:
                self.search_config = tuned.search_config(base=self.search_config)
        self._on_stage = on_stage
        self._generation = 0
        self._swap_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_capacity)
        self._cache = (
            ResultCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self._stats = MetricSet(ServeStats)
        plan = resolve_fault_plan(self.config.fault_plan)
        # One injector for the server's lifetime: ``serve.execute`` is a
        # stateful site, so after/times hit counting is meaningful here.
        self._fault = FaultInjector(plan) if plan is not None else None
        self._breakers = self._make_breakers(self._ann)
        self._thread: threading.Thread | None = None
        self._rebuilder = None
        self._accepting = True
        self._closed = False
        # A mutable index invalidates the cache on every visible state
        # change (insert/delete/promotion), whichever path mutated it.
        if hasattr(self._ann, "set_mutation_listener"):
            self._ann.set_mutation_listener(self._invalidate_cache)

    def _wrap(self, index) -> AnnIndex:
        """Adapt ``index`` with the server's deployment policy baked in."""
        return as_ann_index(
            index,
            num_sms=self.config.num_sms,
            on_shard_failure=self.config.on_shard_failure,
            min_shard_quorum=self.config.min_shard_quorum,
        )

    def _make_breakers(self, ann) -> dict[int, CircuitBreaker]:
        """One breaker per shard; empty when disabled or not sharded."""
        num_shards = getattr(ann, "num_shards", 1)
        if self.config.breaker_failure_threshold < 1 or num_shards < 2:
            return {}
        return {
            s: CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
            for s in range(num_shards)
        }

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    def start(self) -> "CagraServer":
        """Start the scheduler thread (idempotent while running)."""
        if self._closed:
            raise ServerClosed("server was stopped; build a new one")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="cagra-serve-scheduler", daemon=True
            )
            self._thread.start()
        with self._swap_lock:
            ann = self._ann
        if (
            self.config.auto_rebuild
            and self._rebuilder is None
            and hasattr(ann, "repair_incremental")
        ):
            self._rebuilder = self._make_rebuilder(ann)
            self._rebuilder.start()
        return self

    def _make_rebuilder(self, mutable):
        """Background staleness loop promoting through :meth:`swap_index`."""
        from repro.stream import Rebuilder, StalenessPolicy

        policy = StalenessPolicy(
            min_memtable_rows=self.config.rebuild_min_memtable_rows,
            min_tombstone_ratio=self.config.rebuild_min_tombstone_ratio,
            horizon_s=self.config.rebuild_horizon_s,
        )
        rebuilder = Rebuilder(
            mutable,
            policy,
            interval_s=self.config.rebuild_interval_s,
            promote=self.swap_index,
            calibrate=self.config.rebuild_calibrate,
            on_stage=self._on_stage,
        )
        rebuilder.add_listener(
            # One completed maintenance run: action is incremental | full.
            lambda decision, report, latency: self._stats.record(
                last_promotion_ms=latency * 1e3,
                **{f"rebuilds_{report.action}": 1},
            )
        )
        return rebuilder

    def stop(self, drain: bool = True) -> None:
        """Stop the server.

        With ``drain=True`` (default) every queued request is executed
        before the scheduler exits; with ``drain=False`` queued requests
        fail immediately with :class:`ServerClosed` (in-flight batches
        still finish).  Idempotent.
        """
        if self._closed:
            return
        self._accepting = False
        self._closed = True
        rebuilder, self._rebuilder = self._rebuilder, None
        if rebuilder is not None:
            rebuilder.stop()
        if not drain:
            self._fail_queued()
        if self._thread is not None:
            self._queue.put(_SENTINEL)
            self._thread.join()
            self._thread = None
        # Anything that slipped in after the sentinel (or was queued on a
        # never-started server) must not be left hanging.
        self._fail_queued()

    def __enter__(self) -> "CagraServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def check_request(
        self, query: np.ndarray, k: int | None = None
    ) -> tuple[np.ndarray, int]:
        """One request as :meth:`submit` queues it: the float32 ``(dim,)``
        query and the resolved ``k``, after
        :func:`~repro.core.validation.validate_request`.

        Touches no queue, cache or counter, so a tier in front of the
        server (the router) can refuse a malformed request before it
        charges anyone for it.
        """
        k = self.config.default_k if k is None else int(k)
        queries, _ = validate_request(
            np.asarray(query, dtype=np.float32), k, self.ann_index.dim
        )
        if queries.shape[0] != 1:
            raise ValueError(
                f"a request carries one query, got a batch of {queries.shape[0]}"
            )
        return queries[0], k

    def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        timeout_ms: float | None = None,
    ) -> PendingResult:
        """Enqueue one query; returns a :class:`PendingResult` handle.

        Raises :class:`ServerOverloaded` when the queue is full,
        :class:`ServerClosed` after :meth:`stop`, and ``ValueError`` (see
        :meth:`check_request`) for a request no batch should carry.
        """
        if not self._accepting:
            raise ServerClosed("server is not accepting requests")
        query, k = self.check_request(query, k)

        if self._cache is not None:
            with self._swap_lock:
                generation = self._generation
            key = (query.tobytes(), k, generation)
            hit = self._cache.get(key)
            if hit is not None:
                self._stats.record(cache_hits=1)
                request = _Request(query, k, deadline=None)
                request.resolve_done(*hit)
                request.latency_seconds = 0.0
                return PendingResult(request, self._stats, from_cache=True)
            self._stats.record(cache_misses=1)

        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        deadline = time.monotonic() + timeout_ms / 1e3 if timeout_ms else None
        request = _Request(query, k, deadline)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._stats.record(rejected=1)
            raise ServerOverloaded(
                f"request queue full ({self.config.queue_capacity} pending)"
            ) from None
        self._stats.record(submitted=1, max_queue_depth=self._queue.qsize())
        return PendingResult(request, self._stats)

    def search(
        self,
        query: np.ndarray,
        k: int | None = None,
        timeout_ms: float | None = None,
    ) -> ServeResult:
        """Blocking single-query search (``submit().result()``)."""
        return self.submit(query, k=k, timeout_ms=timeout_ms).result()

    # ------------------------------------------------------------------
    # writes (mutable index only)
    # ------------------------------------------------------------------
    def _mutable(self):
        ann = self.ann_index
        if not hasattr(ann, "insert"):
            raise ServeError(
                "served index is not mutable; wrap it in "
                "repro.stream.MutableIndex to accept writes"
            )
        return ann

    def insert(self, vectors, ids=None) -> np.ndarray:
        """Write ``vectors`` into the served mutable index; returns ids.

        The rows are searchable as soon as this returns (exact memtable
        merge); the result cache is invalidated through the index's
        mutation listener so no stale answer survives the write.
        """
        if not self._accepting:
            raise ServerClosed("server is not accepting requests")
        assigned = self._mutable().insert(vectors, ids)
        self._stats.record(
            inserts=1, insert_rows=int(np.atleast_1d(assigned).shape[0])
        )
        return assigned

    def delete(self, ids, strict: bool = True) -> int:
        """Tombstone ``ids`` in the served mutable index.

        Once this returns, the deleted rows can never appear in a result
        (tombstones AND into every base-leg filter mask; the cache is
        invalidated)."""
        if not self._accepting:
            raise ServerClosed("server is not accepting requests")
        removed = self._mutable().delete(ids, strict=strict)
        self._stats.record(deletes=1, delete_rows=int(removed))
        return removed

    def _invalidate_cache(self) -> None:
        """Generation bump + clear: mutation listener target."""
        with self._swap_lock:
            self._generation += 1
        if self._cache is not None:
            self._cache.clear()

    @property
    def rebuilder(self):
        """The auto-started background rebuilder (None when disabled)."""
        return self._rebuilder

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The currently published native index snapshot (unwrapped)."""
        with self._swap_lock:
            return self._index

    @property
    def ann_index(self) -> AnnIndex:
        """The currently published :class:`~repro.api.AnnIndex` snapshot."""
        with self._swap_lock:
            return self._ann

    def swap_index(self, new_index) -> None:
        """Atomically publish ``new_index`` without dropping traffic.

        Accepts anything :func:`repro.api.as_ann_index` does — the new
        index need not even be the same kind as the old one (e.g. CAGRA
        swapped out for HNSW mid-traffic), only the same ``dim``.  The
        batch being executed keeps the snapshot it captured; every later
        batch sees the new index.  The result cache is invalidated
        (generation bump + clear) so no stale result is ever served.
        """
        ann = self._wrap(new_index)
        with self._swap_lock:
            if ann.dim != self._ann.dim:
                raise ValueError(
                    f"new index has dim {ann.dim}, server serves "
                    f"dim {self._ann.dim}"
                )
            self._ann = ann
            self._index = getattr(ann, "inner", ann)
            self._generation += 1
            # Fresh index, fresh breaker state: failures of the old
            # index's shards say nothing about the new one's.
            self._breakers = self._make_breakers(ann)
        if self._cache is not None:
            self._cache.clear()
        if hasattr(ann, "set_mutation_listener"):
            ann.set_mutation_listener(self._invalidate_cache)
        self._stats.record(index_swaps=1)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently queued (cheap; the router's load signal)."""
        return self._queue.qsize()

    def stats(self) -> ServeStats:
        """Snapshot of the metrics surface (see :class:`ServeStats`)."""
        ann = self.ann_index
        gauges = {"queue_depth": self._queue.qsize()}
        if hasattr(ann, "freshness"):
            freshness = ann.freshness()
            gauges.update(
                memtable_rows=int(freshness.memtable_rows),
                tombstone_ratio=float(freshness.tombstone_ratio),
            )
        return ServeStats(**self._stats.snapshot(**gauges))

    #: ``health()`` reports ``"degraded"`` above this rolling failure rate.
    _UNHEALTHY_FAILURE_RATE = 0.5

    def health(self) -> dict:
        """Operator-facing liveness/degradation snapshot (JSON-friendly).

        ``status`` is ``"ok"``, ``"degraded"`` (any shard breaker not
        closed, or the rolling failure rate above
        :data:`_UNHEALTHY_FAILURE_RATE`), or ``"stopped"``.
        """
        with self._swap_lock:
            index = self._index
            generation = self._generation
            breakers = dict(self._breakers)
        snap = self.stats()
        breaker_states = {
            str(s): breakers[s].snapshot() for s in sorted(breakers)
        }
        open_shards = [
            s
            for s in sorted(breakers)
            if breaker_states[str(s)]["state"] != CircuitBreaker.CLOSED
        ]
        if self._closed:
            status = "stopped"
        elif open_shards or (
            snap.recent_failure_rate > self._UNHEALTHY_FAILURE_RATE
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "accepting": self._accepting,
            "generation": generation,
            "num_shards": getattr(index, "num_shards", 1),
            "queue_depth": snap.queue_depth,
            "recent_failure_rate": snap.recent_failure_rate,
            "degraded_batches": snap.degraded_batches,
            "open_shards": open_shards,
            "breakers": breaker_states,
        }

    # ------------------------------------------------------------------
    # scheduler internals
    # ------------------------------------------------------------------
    def _run(self) -> None:
        poll = self.config.drain_poll_ms / 1e3
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            try:
                first = self._queue.get(timeout=poll)
            except queue.Empty:
                continue
            if first is _SENTINEL:
                return
            batch = [first]
            saw_sentinel = False
            flush_at = time.monotonic() + max_wait
            while len(batch) < self.config.max_batch:
                remaining = flush_at - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    saw_sentinel = True
                    break
                batch.append(item)
            self._execute(batch)
            if saw_sentinel:
                return

    def _execute(self, batch: list[_Request]) -> None:
        now = time.monotonic()
        live = []
        for request in batch:
            if request.expired(now):
                if request.resolve_timeout():
                    self._stats.record(timed_out=1)
            elif not request.event.is_set():
                live.append(request)
        if live:
            self._run_batch(live)

    def _fail_batch(self, live: list[_Request], exc: BaseException) -> None:
        for request in live:
            if request.resolve_failure(exc):
                self._stats.record(failed=1, ok=False)

    def _run_batch(self, live: list[_Request]) -> None:
        """Execute one micro-batch, isolating failures by bisection.

        A batch that raises is split in half and each half re-executed,
        so one poisoned request fails alone instead of taking every rider
        down with it (recursion depth is log2 of the batch size).
        :class:`ShardQuorumError` is query-independent — splitting cannot
        help — so it fails the whole batch immediately.
        """
        with self._swap_lock:
            ann = self._ann
            generation = self._generation
            breakers = self._breakers
        k_max = max(request.k for request in live)
        config = self.search_config
        if config.itopk < k_max:
            config = config.with_overrides(itopk=k_max)
        queries = np.stack([request.query for request in live])
        sharded = getattr(ann, "num_shards", 1) > 1
        skip: list[int] = []
        if sharded and breakers:
            skip = [s for s in sorted(breakers) if not breakers[s].allow()]

        corrupt = None
        started = time.monotonic()
        try:
            if self._fault is not None:
                corrupt = self._fault.fire("serve.execute", batch=len(live))
            # ``mode="auto"`` is the Table II dispatch: a batch of 1 runs
            # the multi-CTA reference path, a coalesced batch the
            # vectorized single-CTA fast path (no-op for baselines).
            kwargs = {"skip_shards": skip} if sharded else {}
            result = ann.search(
                queries,
                k_max,
                config=config,
                mode="auto",
                on_stage=self._on_stage,
                **kwargs,
            )
            path = "multi_cta" if len(live) == 1 else "single_cta"
        except ShardQuorumError as exc:
            self._fail_batch(live, exc)
            return
        except Exception as exc:  # deliver, don't kill the scheduler
            if len(live) == 1:
                self._fail_batch(live, exc)
                return
            self._stats.record(batch_splits=1, retried_batches=2)
            mid = len(live) // 2
            self._run_batch(live[:mid])
            self._run_batch(live[mid:])
            return

        failed_shards = list(getattr(result, "failed_shards", []) or [])
        degraded = bool(getattr(result, "degraded", False))
        if sharded and breakers:
            for s in failed_shards:
                if breakers[s].record_failure():
                    self._stats.record(breaker_trips=1)
            for s in range(ann.num_shards):
                if s not in failed_shards and s not in skip:
                    breakers[s].record_success()
        if degraded:
            self._stats.record(
                degraded_batches=1, shard_failures=len(failed_shards)
            )

        self._stats.record(
            batches=1,
            batch_size_histogram=len(live),
            single_query_batches=int(path == "multi_cta"),
            coalesced_batches=int(path != "multi_cta"),
        )
        if self._on_stage is not None:
            self._on_stage(
                "serve.batch",
                time.monotonic() - started,
                {"batch": len(live), "path": path, "degraded": degraded},
            )
        # Degraded or fault-corrupted answers are served but never cached:
        # a partial result must not outlive the failure that caused it.
        cacheable = self._cache is not None and not degraded and corrupt is None
        for row, request in enumerate(live):
            if corrupt is not None:
                ids = np.full(request.k, INDEX_MASK, dtype=np.int32)
                dists = np.full(request.k, np.nan, dtype=np.float32)
            else:
                ids = result.indices[row, : request.k].copy()
                dists = result.distances[row, : request.k].copy()
            if cacheable:
                self._cache.put(
                    (request.query.tobytes(), request.k, generation), ids, dists
                )
            if request.resolve_done(ids, dists):
                self._stats.record(
                    completed=1, latency_s=request.latency_seconds, ok=True
                )

    def _fail_queued(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SENTINEL:
                continue
            if item.resolve_failure(ServerClosed("server stopped before execution")):
                self._stats.record(failed=1, ok=False)
