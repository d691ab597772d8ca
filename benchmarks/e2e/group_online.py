"""Serving phases: one ``CagraServer`` and a 2-replica ``ShardRouter``.

Open loop where batching matters (Poisson arrivals from this thread
through ``CagraServer.submit``; backlog drains), closed loop where the
API blocks (``ShardRouter.search`` from 2 client threads).  The driver
never has more than two runnable threads of its own: the generator plus
the server's batch thread, or two closed-loop clients.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack

import numpy as np

import spans
from harness import Context
from loadgen import poisson_schedule, run_closed_loop, run_open_loop
from sizing import P95_SAMPLES, per_round
from spec import OPEN_LOOP_RATES
from stats import Rounds, median, tail

from repro.api import StageRecorder, as_ann_index
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.router import RouterConfig, ShardRouter
from repro.serve import CagraServer, ServeConfig

#: Latency limit of ``serve.slo_rate_qps``, on the reported tail.
SLO_MS = 100.0
#: Delay injected into one replica in the slow-replica phase.
SLOW_REPLICA_MS = 40.0
ZIPF_S = 1.1
WARMUP_QUERIES = 64
#: The router's dispatch and hedge timing follow per-replica latency EWMAs
#: that start from an optimistic 5-ms prior; for its first ~100 requests
#: it runs up to twice as fast as it ever does again (measured: 116 ->
#: 65 qps), so it is driven into its steady state before anything is timed.
ROUTER_WARMUP_S = 1.0


def _serve_config(cache_capacity: int = 0, **kwargs) -> ServeConfig:
    # Cache off unless the phase is about the cache: the query pool is
    # reused across phases and a hit would bypass the engine.
    return ServeConfig(
        max_batch=64, max_wait_ms=2.0, cache_capacity=cache_capacity,
        queue_capacity=65536, **kwargs,
    )


class _RateStats:
    """Samples of one open-loop rate, accumulated over its slices."""

    def __init__(self):
        self.latency_ms = Rounds()  # from due time
        self.late_ms: list[float] = []
        self.batches: Counter = Counter()
        self.offered = 0
        self.failed = 0
        self.seconds = 0.0


class OnlineGroup:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._stack = ExitStack()
        self.rates = {rate: _RateStats() for rate in OPEN_LOOP_RATES}
        # (query row, ids) of every answer, by how it was executed: a
        # drained backlog runs in full batches on the fast path, a lone
        # request (50 qps, or routed) on the scalar multi-CTA path.
        self.drained: list[tuple] = []
        self.arrived: list[tuple] = []
        self.routed: list[tuple] = []
        self.drain_qps = Rounds()  # one value per drain
        self.drain_batches: Counter = Counter()
        self.routed_qps = Rounds()  # one value per routed slice
        self.routed_ms: list[float] = []
        self._round = 0
        rng = np.random.default_rng([ctx.seed, 0x0A])
        self._rows = rng.permutation(ctx.profile.num_queries)
        self._cursor = 0

    def _take(self, count: int) -> np.ndarray:
        """Next ``count`` query rows of a seeded cycle through the pool."""
        picks = np.take(
            self._rows, np.arange(self._cursor, self._cursor + count), mode="wrap"
        )
        self._cursor += count
        return picks

    # ------------------------------------------------------------------
    def __enter__(self):
        ctx = self.ctx
        self.server = self._stack.enter_context(
            CagraServer(ctx.index, _serve_config(), search_config=ctx.search_config)
        )
        self.router = self._stack.enter_context(
            ShardRouter.build(
                ctx.index,
                num_replicas=2,
                config=RouterConfig(seed=ctx.seed),
                serve_config=_serve_config(),
                search_config=ctx.search_config,
            )
        )
        for handle in [
            self.server.submit(ctx.queries[row], k=ctx.k)
            for row in range(WARMUP_QUERIES)
        ]:
            handle.result()
        run_closed_loop(
            lambda row: self.router.search(ctx.queries[row], k=ctx.k),
            [self._take(256), self._take(256)],
            min(ROUTER_WARMUP_S, ctx.seconds["routed_closed2"]),
        )
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)

    # ------------------------------------------------------------------
    # lap
    # ------------------------------------------------------------------
    def _open_loop(self, server, rate: int, seconds: float, phase: str,
                   zipf_s: float = 0.0, min_count: int = 0):
        ctx = self.ctx
        stats = self.rates.get(rate) if zipf_s == 0.0 else None
        schedule = poisson_schedule(
            rate, seconds, ctx.profile.num_queries,
            seed=[ctx.seed, rate, self._round, int(zipf_s * 10)], zipf_s=zipf_s,
            min_count=min_count,
        )
        before = server.stats().batch_size_histogram
        with ctx.clock(phase):
            outcome = run_open_loop(server, schedule, ctx.queries, ctx.k)
        after = server.stats().batch_size_histogram
        ctx.checks.ops(outcome.failed)
        ctx.checks.fail(f"open loop {rate} qps: request failed", outcome.failed)
        answered = [(row, r) for row, r in zip(outcome.rows, outcome.results) if r]
        if answered:
            ctx.check_answers(*zip(*answered), what="served")
        if stats is not None:
            stats.latency_ms.start()
            for latency in outcome.latency_s[~np.isnan(outcome.latency_s)]:
                stats.latency_ms.add(latency * 1e3)
            stats.late_ms += (outcome.late_s * 1e3).tolist()
            stats.batches.update(Counter(after) - Counter(before))
            stats.offered += len(schedule)
            stats.failed += outcome.failed
            stats.seconds += outcome.seconds
            self.arrived += [(int(row), r.indices) for row, r in answered]
        return outcome

    def _drain(self) -> None:
        """Submit a backlog at once, wait for all of it."""
        ctx = self.ctx
        count = ctx.profile.drain_requests
        rows = self._take(count)
        before = self.server.stats().batch_size_histogram
        with ctx.clock("drain"):
            began = time.perf_counter()
            handles = [self.server.submit(ctx.queries[row], k=ctx.k) for row in rows]
            answers = [handle.result() for handle in handles]
            self.drain_qps.single(count / (time.perf_counter() - began))
        self.drain_batches.update(
            Counter(self.server.stats().batch_size_histogram) - Counter(before)
        )
        ctx.check_answers(rows, answers, what="drained")
        self.drained += [(int(row), a.indices) for row, a in zip(rows, answers)]

    def _closed2(self, call, seconds: float, phase: str, min_count: int = 0):
        """Two closed-loop clients on disjoint query rows."""
        ctx = self.ctx
        budget = ctx.profile.num_queries // 2
        client_rows = [self._take(budget), self._take(budget)]
        with ctx.clock(phase):
            outcome = run_closed_loop(call, client_rows, seconds, min_count)
        ctx.checks.ops(outcome.failed)
        ctx.checks.fail(f"{phase}: request failed", outcome.failed)
        answered = [(row, r) for row, r in zip(outcome.rows, outcome.results) if r]
        if answered:
            ctx.check_answers(*zip(*answered), what=phase)
        return outcome

    def lap(self, rounds: int) -> None:
        ctx = self.ctx
        # The traced run reports these two phases' p95 and sizes their
        # slices in samples.
        tail_samples = per_round(P95_SAMPLES, rounds) if ctx.trace else 0
        self._open_loop(
            self.server, 50, ctx.slice_seconds("open_loop_50", rounds), "open_loop_50",
            min_count=tail_samples,
        )
        self._drain()
        self._round += 1
        outcome = self._closed2(
            lambda row: self.router.search(ctx.queries[row], k=ctx.k),
            ctx.slice_seconds("routed_closed2", rounds),
            "routed_closed2",
            min_count=tail_samples,
        )
        self.routed_qps.single(outcome.qps)
        for row, lat, result in zip(outcome.rows, outcome.latency_s, outcome.results):
            if result is not None:
                self.routed_ms.append(lat * 1e3)
                self.routed.append((row, result.indices))

    def finish(self) -> None:
        """Recall of what was served, against the offline figure."""
        ctx = self.ctx

        def recall(answers) -> float:
            rows, ids = zip(*answers)
            return ctx.recall(np.stack(ids), rows)

        self.served = self.drained + self.arrived
        self.served_recall = recall(self.served)
        # One-sided, with the slack the program's own variation needs (the
        # engine seeds a query's start points by its place in the batch,
        # so one query's answer changes with the batch it rides in).
        # Drained answers ran in batches of 64 on the fast path: over all
        # 2048 queries that path recalls up to 0.008 less in batches of 64
        # than in the offline pass's batches of 512, and 0.011 less was
        # seen in a drain (seed 7228).  A few hundred lone requests ran on
        # the scalar multi-CTA path, whose recall over 90 queries was seen
        # 0.07 below the batch path's (seed 7191: 3 % of its queries miss
        # badly) and 0.02 above it.  ``check_answers`` is the sharp test
        # of the serving layers; these catch answers that are valid but
        # worse.
        for what, answers, slack in (("drained", self.drained, 0.03),
                                     ("50-qps", self.arrived, 0.10),
                                     ("routed", self.routed, 0.10)):
            value = recall(answers)
            ctx.checks.require(
                value >= ctx.offline_recall - slack,
                f"{what} recall {value:.4f} is more than {slack} below offline "
                f"{ctx.offline_recall:.4f}",
            )

    # ------------------------------------------------------------------
    # traced run only
    # ------------------------------------------------------------------
    def sweeps(self) -> None:
        ctx, put = self.ctx, self.ctx.results.put
        for rate in OPEN_LOOP_RATES[1:]:
            phase = f"open_loop_{rate}"
            self._open_loop(self.server, rate, ctx.seconds[phase], phase,
                            min_count=P95_SAMPLES)

        outcome = self._closed2(
            lambda row: self.server.search(ctx.queries[row], k=ctx.k),
            ctx.seconds["server_closed2"],
            "server_closed2",
        )
        self.server_closed2_qps = outcome.qps
        put("serve.closed2_qps", outcome.qps, len(outcome.rows))
        put("serve.closed2_p50_ms", median(outcome.latency_s) * 1e3, len(outcome.rows))

        with CagraServer(
            ctx.index, _serve_config(cache_capacity=1024),
            search_config=ctx.search_config,
        ) as cached:
            outcome = self._open_loop(
                cached, 200, ctx.seconds["cache_zipf_200"], "cache_zipf_200",
                zipf_s=ZIPF_S,
            )
            put("serve.cache_zipf.hit_rate", cached.stats().cache_hit_rate,
                len(outcome.rows))
        latency = outcome.latency_s[~np.isnan(outcome.latency_s)]
        put("serve.cache_zipf.p50_ms", median(latency) * 1e3, len(latency))

        self._ladder()
        self._slow_replica()
        self._trace_overhead()

    def _ladder(self) -> None:
        """The same queries, one at a time, at each depth of the stack."""
        ctx, put = self.ctx, self.ctx.results.put
        recorder = StageRecorder()
        adapter = as_ann_index(ctx.index)
        rows = self._take(ctx.profile.ladder_queries)
        served_ms: list[float] = []
        # The serve rung's server carries the on_stage hook (for the queue
        # wait split below) and the router's replicas do not, so a router
        # self time within a few tenths of a ms of zero is zero.
        with CagraServer(
            ctx.index, _serve_config(), search_config=ctx.search_config,
            on_stage=recorder.on_stage,
        ) as server, ctx.clock("ladder"):
            calls = {
                "core.search": lambda q: ctx.index.search(
                    q[None], ctx.k, config=ctx.search_config
                ),
                "api": lambda q: adapter.search(q[None], ctx.k, config=ctx.search_config),
                "serve": lambda q: server.search(q, k=ctx.k),
                "router": lambda q: self.router.search(q, k=ctx.k),
            }
            # Rungs alternate per query so that drift hits all four alike.
            for row in rows:
                query = ctx.queries[row]
                for rung in spans.LADDER_RUNGS:
                    with ctx.tracer.span(f"ladder.{rung}", request=int(row)):
                        answer = calls[rung](query)
                    ctx.check_ids(answer.indices, what=f"ladder {rung}")
                    if rung == "serve":
                        served_ms.append(answer.latency_ms)
        selfs = spans.ladder_self_times(ctx.tracer.spans)
        for rung in spans.LADDER_RUNGS:
            put(f"{rung}.ladder_self_ms", selfs[rung], len(rows))
        put("ladder.e2e_p50_ms", selfs["e2e"], len(rows))

        # One request per batch here, so the i-th serve.batch event is the
        # i-th request's execution; the rest of its latency is queue wait.
        batch_s = [e.seconds for e in recorder.events if e.name == "serve.batch"]
        ctx.tracer.add_stage_events("ladder.serve", recorder.events)
        ctx.checks.require(
            len(batch_s) == len(served_ms), "ladder: one serve.batch per request"
        )
        waits = [ms - s * 1e3 for ms, s in zip(served_ms, batch_s)]
        put("serve.queue_wait_p50_ms", median(waits), len(waits))
        put("serve.batch_exec_share", sum(batch_s) * 1e3 / sum(served_ms), len(waits))

    def _slow_replica(self) -> None:
        """Round-robin over a healthy and a slowed replica, hedging on."""
        ctx, put = self.ctx, self.ctx.results.put
        plan = FaultPlan(
            (FaultSpec("serve.execute", "delay", delay_ms=SLOW_REPLICA_MS),)
        ).to_json()
        servers = [
            CagraServer(ctx.index, _serve_config(), search_config=ctx.search_config),
            CagraServer(ctx.index, _serve_config(fault_plan=plan),
                        search_config=ctx.search_config),
        ]
        config = RouterConfig(dispatch="round_robin", hedge=True, seed=ctx.seed)
        with ShardRouter(servers, config=config) as router:
            outcome = self._closed2(
                lambda row: router.search(ctx.queries[row], k=ctx.k),
                ctx.seconds["slow_replica"],
                "slow_replica",
                min_count=P95_SAMPLES,
            )
            stats = router.stats()
        latency_ms = [lat * 1e3 for lat in outcome.latency_s]
        put("router.slow.p50_ms", median(latency_ms), len(latency_ms))
        put("router.slow.p95_ms", tail(latency_ms, 95), len(latency_ms))
        put("router.slow.hedge_rate", stats.hedge_rate, stats.routed)
        put("router.slow.hedge_win_rate", stats.hedge_win_rate, stats.hedges_issued)

    def _trace_overhead(self) -> None:
        """Span cost on the cheapest traced call: ``index.search`` b1 with
        and without a span, alternating."""
        ctx = self.ctx
        tracer = ctx.tracer
        timed = {True: [], False: []}
        with ctx.clock("trace_overhead"):
            for row in self._take(ctx.profile.ladder_queries):
                for enabled in (True, False):
                    tracer.enabled = enabled
                    began = time.perf_counter()
                    with tracer.span("overhead.probe"):
                        ctx.index.search(
                            ctx.queries[row][None], ctx.k, config=ctx.search_config
                        )
                    timed[enabled].append(time.perf_counter() - began)
        tracer.enabled = True
        ctx.checks.ops(2 * len(timed[True]))
        plain = median(timed[False])
        ctx.results.put(
            "bench.trace_overhead_fraction",
            (median(timed[True]) - plain) / plain,
            len(timed[True]),
        )

    # ------------------------------------------------------------------
    def report(self) -> None:
        ctx, put = self.ctx, self.ctx.results.put
        best = ctx.results.put_best_round
        best("serve_capacity_qps", self.drain_qps)
        best("serve.r50.p50_ms", self.rates[50].latency_ms)
        # Median, not best: now and then a slice catches the router in a
        # fast transient (~200 qps against ~75), which a maximum would
        # report as the run's rate.
        slices = self.routed_qps.flat
        put("router.closed2_qps", median(slices), len(slices), per_round=slices)
        if not ctx.trace:
            return

        passing = []
        for rate, stats in self.rates.items():
            prefix = f"serve.r{rate}"
            count = len(stats.latency_ms)
            p95 = tail(stats.latency_ms.flat, 95)
            batches = sum(stats.batches.values())
            achieved = (stats.offered - stats.failed) / stats.seconds
            best(f"{prefix}.p50_ms", stats.latency_ms)
            put(f"{prefix}.p95_ms", p95, count)
            put(f"{prefix}.mean_batch",
                sum(size * n for size, n in stats.batches.items()) / batches, batches)
            put(f"{prefix}.single_query_batch_fraction",
                stats.batches.get(1, 0) / batches, batches)
            put(f"{prefix}.achieved_qps", achieved, count)
            put(f"{prefix}.failed", stats.failed, stats.offered)
            put(f"bench.loadgen.r{rate}.late_p95_ms", tail(stats.late_ms, 95),
                len(stats.late_ms))
            # A backlog that grows shows in the tail within the slice, so
            # the limit on the tail is also the no-growing-backlog test.
            if p95 <= SLO_MS and stats.failed == 0:
                passing.append(rate)
        # Step-valued: the highest of the three fixed rates that met the
        # limit (0 when none did).
        put("serve.slo_rate_qps", max(passing, default=0), len(self.rates))

        batches = sum(self.drain_batches.values())
        put("serve.drain_mean_batch",
            sum(size * n for size, n in self.drain_batches.items()) / batches, batches)
        put("serve.max_queue_depth", self.server.stats().max_queue_depth)

        routed = len(self.routed_ms)
        stats = self.router.stats()
        put("router.closed2_p50_ms", median(self.routed_ms), routed)
        put("router.closed2_p95_ms", tail(self.routed_ms, 95), routed)
        put("router.qps_ratio_vs_single_server",
            median(slices) / self.server_closed2_qps, len(slices))
        put("router.hedge_rate", stats.hedge_rate, stats.routed)
        put("router.hedge_win_rate", stats.hedge_win_rate, stats.hedges_issued)
        put("router.failovers", stats.failovers, stats.routed)
