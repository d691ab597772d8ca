"""Tests for repro.router: quotas, dispatch, hedging, failover, chaos.

The two integration tests at the bottom are the acceptance scenario: a
seeded Zipfian multi-tenant load of 500+ queries against a 3-replica
fleet with an injected slow replica must show a strictly better p99 with
hedging than without on the same seed, and — with an injected crash and
a rolling upgrade mid-load — zero failed requests, per-tenant quota
rejections matching the reference token-bucket model *exactly*, and
recall parity with an undisturbed run within 0.01.
"""

import threading
import time

import numpy as np
import pytest

from repro import CagraIndex, GraphBuildConfig, SearchConfig
from repro.baselines import exact_search
from repro.core.metrics import recall
from repro.core.sharding import ShardedCagraIndex
from repro.datasets.synthetic import make_queries
from repro.parallel import ParallelConfig
from repro.router import (
    Ewma,
    QuotaLedger,
    RouterConfig,
    ShardRouter,
    TenantOverQuota,
    TokenBucket,
    expected_quota_outcomes,
    run_fleet_closed_loop,
)
from repro.router.replica import ACTIVE, DEAD, DRAINING
from repro.serve import CagraServer, ServeConfig, make_zipf_schedule

SEARCH = SearchConfig(itopk=64, seed=5)

#: Per-server fault plan failing every batch (breaker / failover fodder).
_FAIL_EXECUTE = '[{"point": "serve.execute", "kind": "raise"}]'


def _slow_plan(delay_ms: float) -> str:
    """Per-server fault plan stalling every batch at execution time."""
    return (
        '[{"point": "serve.execute", "kind": "delay", '
        f'"delay_ms": {delay_ms}}}]'
    )


def make_fleet(
    index,
    num_replicas=3,
    slow_replica=None,
    slow_ms=25.0,
    failing_replica=None,
    serve_overrides=None,
    **router_overrides,
) -> ShardRouter:
    """A fleet of servers over ``index``; one may be slow or broken."""
    defaults = dict(
        max_batch=16, max_wait_ms=2.0, queue_capacity=1024, cache_capacity=0
    )
    defaults.update(serve_overrides or {})
    servers = []
    for rid in range(num_replicas):
        fields = dict(defaults)
        if rid == slow_replica:
            fields["fault_plan"] = _slow_plan(slow_ms)
        if rid == failing_replica:
            fields["fault_plan"] = _FAIL_EXECUTE
        servers.append(
            CagraServer(index, ServeConfig(**fields), search_config=SEARCH)
        )
    return ShardRouter(servers, config=RouterConfig(**router_overrides))


@pytest.fixture(scope="module")
def router_queries(small_data):
    return make_queries(small_data, 40, seed=31)


@pytest.fixture(scope="module")
def router_truth(small_data, router_queries):
    ids, _ = exact_search(small_data, router_queries, 10)
    return ids


# ----------------------------------------------------------------------
# Token buckets and the quota ledger
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.try_acquire(now=0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_acquire(now=0.0)
        assert bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=0.0)
        # 0.1s at 10 tokens/s mints exactly one token.
        assert bucket.try_acquire(now=0.1)
        assert not bucket.try_acquire(now=0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.try_acquire(now=0.0)
        # A long idle period cannot mint more than ``burst`` tokens.
        assert bucket.try_acquire(now=100.0)
        assert bucket.try_acquire(now=100.0)
        assert not bucket.try_acquire(now=100.0)

    def test_stale_now_cannot_mint_tokens(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_acquire(now=5.0)
        # Time running backwards is clamped, not credited.
        assert not bucket.try_acquire(now=0.0)
        assert not bucket.try_acquire(now=5.05)
        assert bucket.try_acquire(now=5.2)

    def test_retry_after_matches_deficit(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_acquire(now=0.0)
        assert bucket.retry_after_s() == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestQuotaLedger:
    def test_rejection_is_typed_and_counted(self):
        ledger = QuotaLedger(rate=10.0, burst=1.0)
        ledger.admit("tenant-a", now=0.0)
        with pytest.raises(TenantOverQuota) as excinfo:
            ledger.admit("tenant-a", now=0.0)
        assert excinfo.value.tenant == "tenant-a"
        assert excinfo.value.retry_after_s == pytest.approx(0.1)
        assert ledger.total_rejections == 1
        snap = ledger.snapshot()
        assert snap["admitted"]["tenant-a"] == 1
        assert snap["rejected"]["tenant-a"] == 1

    def test_buckets_are_per_tenant(self):
        ledger = QuotaLedger(rate=10.0, burst=1.0)
        ledger.admit("tenant-a", now=0.0)
        # tenant-b has its own full bucket.
        ledger.admit("tenant-b", now=0.0)
        with pytest.raises(TenantOverQuota):
            ledger.admit("tenant-a", now=0.0)


# ----------------------------------------------------------------------
# Dispatch policies and replica life cycle
# ----------------------------------------------------------------------
class TestDispatch:
    def test_load_aware_prefers_fast_replica(self, small_index, router_queries):
        router = make_fleet(small_index, dispatch="load_aware", hedge=False)
        # Teach the EWMAs: replica 1 is much faster than 0 and 2.
        for rid, ms in ((0, 50.0), (1, 1.0), (2, 50.0)):
            for _ in range(10):
                router.replicas[rid].observe_latency(ms)
        with router:
            for q in router_queries[:10]:
                result = router.search(q, k=5)
                assert result.replica == 1

    def test_round_robin_rotates(self, small_index, router_queries):
        router = make_fleet(small_index, dispatch="round_robin", hedge=False)
        with router:
            replicas = [
                router.search(router_queries[i % 5], k=5).replica
                for i in range(6)
            ]
        assert replicas == [0, 1, 2, 0, 1, 2]

    def test_dead_replica_never_dispatched(self, small_index, router_queries):
        router = make_fleet(small_index, dispatch="round_robin", hedge=False)
        with router:
            router.kill_replica(0)
            replicas = {
                router.search(router_queries[i % 5], k=5).replica
                for i in range(8)
            }
        assert 0 not in replicas
        assert router.replicas[0].state == DEAD

    def test_draining_is_last_resort(self, small_index, router_queries):
        router = make_fleet(small_index, dispatch="load_aware", hedge=False)
        with router:
            router.replicas[0].mark_draining()
            router.replicas[1].mark_draining()
            seen = {
                router.search(router_queries[i % 5], k=5).replica
                for i in range(6)
            }
            assert seen == {2}
            # All draining: the fleet degrades instead of refusing.
            router.replicas[2].mark_draining()
            result = router.search(router_queries[0], k=5)
            assert result.indices.shape == (5,)
            assert router.replicas[result.replica].state == DRAINING

    def test_ewma_converges(self):
        ewma = Ewma(alpha=0.5, initial=0.0)
        for _ in range(12):
            ewma.update(10.0)
        assert ewma.value == pytest.approx(10.0, abs=0.1)
        assert ewma.samples == 12


# ----------------------------------------------------------------------
# Hedged requests
# ----------------------------------------------------------------------
class TestHedging:
    def test_hedge_wins_over_slow_primary(self, small_index, router_queries):
        router = make_fleet(
            small_index,
            slow_replica=0,
            dispatch="round_robin",
            hedge=True,
            hedge_delay_ms=3.0,
        )
        with router:
            result = router.search(router_queries[0], k=10)  # seq 0 → replica 0
        assert result.hedged and result.hedge_won
        assert result.replica != 0
        assert result.latency_ms < 25.0  # beat the injected 25ms stall
        stats = router.stats()
        assert stats.hedges_issued == 1 and stats.hedges_won == 1

    def test_fast_primary_never_hedges(self, small_index, router_queries):
        router = make_fleet(
            small_index, dispatch="round_robin", hedge=True, hedge_delay_ms=200.0
        )
        with router:
            for i in range(6):
                result = router.search(router_queries[i % 5], k=5)
                assert not result.hedged
        assert router.stats().hedges_issued == 0

    def test_hedge_result_matches_primary_path(self, small_index, router_queries):
        """Exactly-once: the hedged answer equals the unhedged answer."""
        hedged = make_fleet(
            small_index, slow_replica=0, dispatch="round_robin",
            hedge=True, hedge_delay_ms=3.0,
        )
        with hedged:
            with_hedge = hedged.search(router_queries[0], k=10)
        plain = make_fleet(small_index, dispatch="round_robin", hedge=False)
        with plain:
            without = plain.search(router_queries[0], k=10)
        np.testing.assert_array_equal(with_hedge.indices, without.indices)

    def test_derived_delay_tracks_ewma(self, small_index):
        router = make_fleet(
            small_index, hedge=True, hedge_delay_ms=0.0,
            hedge_latency_factor=2.0, hedge_delay_floor_ms=1.0,
            hedge_delay_cap_ms=100.0,
        )
        replica = router.replicas[0]
        for _ in range(50):
            replica.observe_latency(20.0)
        assert router._hedge_delay_s(replica, 0) == pytest.approx(0.040, rel=0.05)
        # Floor and cap clamp the derived delay.
        for _ in range(200):
            replica.observe_latency(0.01)
        assert router._hedge_delay_s(replica, 0) == pytest.approx(0.001, rel=0.05)
        for _ in range(200):
            replica.observe_latency(500.0)
        assert router._hedge_delay_s(replica, 0) == pytest.approx(0.100, rel=0.05)

    def test_jitter_is_seeded_and_per_sequence(self, small_index):
        router = make_fleet(
            small_index, hedge=True, hedge_delay_ms=5.0, hedge_jitter_ms=4.0,
            seed=11,
        )
        again = make_fleet(
            small_index, hedge=True, hedge_delay_ms=5.0, hedge_jitter_ms=4.0,
            seed=11,
        )
        replica = router.replicas[0]
        delays = [router._hedge_delay_s(replica, seq) for seq in range(8)]
        # Same seed ⇒ identical stream; different sequences ⇒ distinct draws.
        assert delays == [again._hedge_delay_s(again.replicas[0], s) for s in range(8)]
        assert len(set(delays)) == len(delays)
        assert all(0.005 <= d <= 0.009 for d in delays)


# ----------------------------------------------------------------------
# Failover, breakers, and the router fault points
# ----------------------------------------------------------------------
class TestFailover:
    def test_failing_replica_fails_over(self, small_index, router_queries):
        router = make_fleet(
            small_index, failing_replica=0, dispatch="round_robin", hedge=False,
            breaker_failure_threshold=0,
        )
        with router:
            result = router.search(router_queries[0], k=5)  # seq 0 → replica 0
        assert result.replica != 0
        stats = router.stats()
        assert stats.failovers == 1
        assert stats.routed_failed == 0
        assert router.replicas[0].snapshot()["failures"] == 1

    def test_breaker_opens_and_routes_around(self, small_index, router_queries):
        router = make_fleet(
            small_index, failing_replica=0, dispatch="round_robin", hedge=False,
            breaker_failure_threshold=2, breaker_cooldown_s=60.0,
        )
        with router:
            for i in range(6):
                router.search(router_queries[i % 5], k=5)
            health = router.health()
        assert health.status == "degraded"
        assert health.open_breakers == [0]
        # Once open, replica 0 is excluded up front: failures stop at 2.
        assert router.replicas[0].snapshot()["failures"] == 2

    def test_dispatch_fault_point_triggers_failover(
        self, small_index, router_queries
    ):
        plan = (
            '[{"point": "router.dispatch", "kind": "raise", '
            '"match": {"replica": 0}, "times": 1}]'
        )
        router = make_fleet(
            small_index, dispatch="round_robin", hedge=False, fault_plan=plan,
        )
        with router:
            result = router.search(router_queries[0], k=5)
        assert result.replica == 1  # replica 0's dispatch was injected away
        assert router.stats().routed == 1

    def test_hedge_fault_point_cancels_hedge(self, small_index, router_queries):
        plan = '[{"point": "router.hedge", "kind": "raise"}]'
        router = make_fleet(
            small_index, slow_replica=0, dispatch="round_robin",
            hedge=True, hedge_delay_ms=3.0, fault_plan=plan,
        )
        with router:
            result = router.search(router_queries[0], k=5)
        # The hedge was injected away; the slow primary still answers.
        assert not result.hedge_won
        assert result.replica == 0
        assert router.stats().hedges_issued == 0

    def test_all_replicas_failing_raises(self, small_index, router_queries):
        router = make_fleet(
            small_index, num_replicas=2, dispatch="round_robin", hedge=False,
            breaker_failure_threshold=0, max_attempts=2,
        )
        for rid in (0, 1):
            router.replicas[rid].server.stop(drain=False)
        with pytest.raises(Exception):
            router.search(router_queries[0], k=5)
        assert router.stats().routed_failed == 1

    def test_malformed_requests_cost_nobody_but_their_sender(
        self, small_index, router_queries
    ):
        """Wrong-dim and NaN requests are a client's mistake, not a
        replica's: they raise ``ValueError`` before admission and before
        any replica is touched, so breakers stay closed, no token is
        spent and the next healthy request is served at once."""
        router = make_fleet(
            small_index, num_replicas=2, hedge=False,
            quota_rate_qps=1.0, quota_burst=3.0,
        )
        good = router_queries[0]
        poisoned = good.copy()
        poisoned[0] = np.nan
        with router:
            router.search(good, k=5, arrival_s=0.0)
            for bad in [good[:-1]] * 5 + [poisoned] * 5:
                with pytest.raises(ValueError):
                    router.search(bad, k=5, arrival_s=0.0)
            for replica in router.replicas:
                breaker = replica.snapshot()["breaker"]
                assert breaker["state"] == "closed"
                assert breaker["consecutive_failures"] == 0
            stats = router.stats()
            assert (stats.routed, stats.routed_failed, stats.submitted) == (1, 0, 1)
            assert router.health().quotas["admitted"] == {"default": 1}
            # The bucket still holds two of its three tokens — no more, no less.
            router.search(good, k=5, arrival_s=0.0)
            router.search(good, k=5, arrival_s=0.0)
            with pytest.raises(TenantOverQuota):
                router.search(good, k=5, arrival_s=0.0)


# ----------------------------------------------------------------------
# Rolling upgrades and chaos
# ----------------------------------------------------------------------
class TestRollingSwap:
    def test_swap_replaces_every_live_replica(self, small_data, small_index):
        new_index = CagraIndex.build(
            small_data, GraphBuildConfig(graph_degree=16, seed=13)
        )
        router = make_fleet(small_index, hedge=False)
        with router:
            swapped = router.rolling_swap(new_index)
        assert swapped == 3
        stats = router.stats()
        assert stats.rolling_swaps == 1
        assert stats.index_swaps == 3  # summed across replica servers
        for replica in router.replicas:
            assert replica.server.index is new_index
            assert replica.state == ACTIVE

    def test_swap_skips_dead_replicas(self, small_data, small_index):
        new_index = CagraIndex.build(
            small_data, GraphBuildConfig(graph_degree=16, seed=13)
        )
        router = make_fleet(small_index, hedge=False)
        with router:
            router.kill_replica(1)
            assert router.rolling_swap(new_index) == 2
        assert router.replicas[1].server.index is small_index

    def test_swap_mid_traffic_keeps_recall(
        self, small_data, small_index, router_queries, router_truth
    ):
        """The chaos drill: hot-swap the whole fleet under live load."""
        new_index = CagraIndex.build(
            small_data, GraphBuildConfig(graph_degree=16, seed=13)
        )
        router = make_fleet(small_index, hedge=False)
        results = {}
        results_lock = threading.Lock()
        stop = threading.Event()

        def load() -> None:
            i = 0
            while not stop.is_set():
                row = i % 25
                found = router.search(router_queries[row], k=10).indices
                with results_lock:
                    results[i] = (row, found)
                i += 1

        with router:
            client = threading.Thread(target=load)
            client.start()
            time.sleep(0.05)
            swapped = router.rolling_swap(new_index)
            time.sleep(0.05)
            stop.set()
            client.join()
        assert swapped == 3
        rows = np.array([row for row, _ in results.values()])
        found = np.stack([ids for _, ids in results.values()])
        assert recall(found, router_truth[rows]) >= 0.95


class TestKillReplicaChaos:
    def test_mid_load_kill_degrades_gracefully(self, small_index, router_queries):
        router = make_fleet(small_index, hedge=True, hedge_delay_ms=5.0)
        outcomes = []
        stop = threading.Event()

        def load() -> None:
            i = 0
            while not stop.is_set():
                try:
                    router.search(router_queries[i % 25], k=5)
                    outcomes.append("ok")
                except Exception:
                    outcomes.append("failed")
                i += 1

        with router:
            client = threading.Thread(target=load)
            client.start()
            time.sleep(0.05)
            router.kill_replica(2)
            time.sleep(0.15)
            stop.set()
            client.join()
            health = router.health()
        assert outcomes.count("failed") == 0
        assert len(outcomes) > 5  # traffic kept flowing through the kill
        assert health.status == "degraded"
        assert health.replicas[2]["state"] == DEAD
        assert router.stats().replicas_dead == 1


# ----------------------------------------------------------------------
# Fleet stats surface
# ----------------------------------------------------------------------
class TestRouterStats:
    def test_base_fields_are_summed_fleet_wide(self, small_index, router_queries):
        router = make_fleet(small_index, dispatch="round_robin", hedge=False)
        with router:
            for i in range(9):
                router.search(router_queries[i % 5], k=5)
        stats = router.stats()
        assert stats.routed == 9
        assert stats.submitted == 9  # across all three replica servers
        assert sum(
            snap["dispatched"] for snap in stats.per_replica.values()
        ) == 9
        assert stats.replicas == 3 and stats.replicas_active == 3
        payload = stats.to_dict()
        assert payload["routed"] == 9
        assert payload["per_replica"]["0"]["dispatched"] == 3
        assert "hedging" in stats.summary()

    def test_health_snapshot_is_json_friendly(self, small_index):
        import json

        router = make_fleet(small_index, quota_rate_qps=100.0, quota_burst=5.0)
        with router:
            health = router.health()
        assert health.status == "ok"
        json.dumps(health.to_dict())  # must not raise


class TestFleetLoadgenAnswerWidth:
    @pytest.mark.parametrize("default_k", [5, 20])
    def test_k_none_sizes_indices_from_the_fleets_default_k(
        self, small_index, router_queries, default_k
    ):
        """``k=None`` used to hard-code 10 columns: ``default_k=20`` lost
        half of every answer, ``default_k=5`` padded five ``-1`` misses."""
        schedule = make_zipf_schedule(12, 2, len(router_queries), seed=5)
        router = make_fleet(
            small_index, num_replicas=2, hedge=False,
            serve_overrides={"default_k": default_k},
        )
        with router:
            report = run_fleet_closed_loop(router, router_queries, schedule)
        assert report.count("ok") == 12
        assert report.indices.shape == (12, default_k)
        assert (report.indices >= 0).all()


# ----------------------------------------------------------------------
# Determinism: same seed + fault plan ⇒ identical results and counters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_shard(small_data):
    index = ShardedCagraIndex.build(
        small_data, 2, GraphBuildConfig(graph_degree=16, seed=3),
        parallel=ParallelConfig(backend="serial"),
    )
    yield index
    index.close()


def _deterministic_run(index, queries, schedule):
    # Wide timing margins make the hedge pattern structural, not racy:
    # normal legs finish in a few ms (tens on the process backend)
    # << 150 ms hedge delay << 400 ms injected stall, so a hedge fires
    # iff the primary is replica 0 and the hedge leg always wins.
    router = make_fleet(
        index,
        slow_replica=0,
        slow_ms=400.0,
        dispatch="round_robin",
        hedge=True,
        hedge_delay_ms=150.0,
        hedge_jitter_ms=10.0,
        seed=17,
        quota_rate_qps=200.0,
        quota_burst=8.0,
    )
    with router:
        report = run_fleet_closed_loop(
            router, queries, schedule, num_clients=1, k=10
        )
    stats = router.stats()
    return report, stats


class TestHedgeDeterminism:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_same_seed_same_results_and_counters(
        self, two_shard, router_queries, backend
    ):
        """Bitwise-identical answers and identical hedge counters across
        reruns, with shard fan-out on the thread and process backends."""
        view = ShardedCagraIndex(
            two_shard.shards,
            two_shard.assignments,
            parallel=ParallelConfig(backend=backend, num_workers=2),
        )
        view.search(router_queries[:4], 10)  # warm the worker pool
        schedule = make_zipf_schedule(
            60, num_tenants=3, num_query_rows=40, rate_qps=400.0, seed=23
        )
        first_report, first_stats = _deterministic_run(
            view, router_queries, schedule
        )
        second_report, second_stats = _deterministic_run(
            view, router_queries, schedule
        )
        np.testing.assert_array_equal(
            first_report.indices, second_report.indices
        )
        np.testing.assert_array_equal(
            first_report.outcome, second_report.outcome
        )
        np.testing.assert_array_equal(
            first_report.replica, second_report.replica
        )
        assert first_report.hedged.sum() == second_report.hedged.sum()
        assert first_report.hedge_won.sum() == second_report.hedge_won.sum()
        assert first_stats.hedges_issued == second_stats.hedges_issued
        assert first_stats.hedges_won == second_stats.hedges_won
        assert first_stats.quota_rejections == second_stats.quota_rejections
        # Round-robin sequential submission pins the hedge pattern: only
        # requests whose primary was the slow replica 0 hedge.
        assert first_stats.hedges_issued > 0
        hedged_positions = np.flatnonzero(
            np.asarray(first_report.outcome == "ok")
            & (first_report.replica != 0)
        )
        assert hedged_positions.size > 0


# ----------------------------------------------------------------------
# Acceptance: the multi-tenant fleet scenario from the issue
# ----------------------------------------------------------------------
class TestFleetAcceptance:
    REQUESTS = 520
    TENANTS = 4

    def _schedule(self, rate_qps=2000.0):
        return make_zipf_schedule(
            self.REQUESTS,
            num_tenants=self.TENANTS,
            num_query_rows=40,
            rate_qps=rate_qps,
            zipf_s=1.1,
            seed=41,
        )

    def test_hedging_beats_unhedged_p99_on_same_seed(
        self, small_index, router_queries
    ):
        schedule = self._schedule()
        p99 = {}
        for hedge in (False, True):
            # Hedge delay sits between normal leg latency and the
            # injected stall, so only slow-primary requests hedge —
            # hedging must not double the load on the healthy replicas.
            router = make_fleet(
                small_index,
                slow_replica=0,
                slow_ms=100.0,
                dispatch="round_robin",
                hedge=hedge,
                hedge_delay_ms=25.0,
                seed=41,
            )
            with router:
                report = run_fleet_closed_loop(
                    router, router_queries, schedule, num_clients=2, k=10
                )
            assert report.count("failed") == 0 and report.count("timed_out") == 0
            assert report.count("ok") == self.REQUESTS
            p99[hedge] = report.latency_percentile_ms(99)
        # A third of primaries stall 100ms unhedged; hedged requests
        # escape after the 25ms hedge delay.
        assert p99[True] < p99[False]
        assert p99[False] >= 50.0

    def test_chaos_run_quota_exact_zero_failed_recall_parity(
        self, small_data, small_index, router_queries, router_truth
    ):
        """520 Zipfian queries, 3 replicas, slow replica + mid-load kill
        + rolling upgrade + per-tenant quotas: zero failures, exact
        quota accounting, recall parity ≤ 0.01 with a calm run."""
        rate, burst = 900.0, 12.0
        schedule = self._schedule()
        truth_rows = schedule.query_rows % 40

        def run(chaos: bool):
            router = make_fleet(
                small_index,
                slow_replica=0 if chaos else None,
                hedge=True,
                hedge_delay_ms=3.0,
                quota_rate_qps=rate,
                quota_burst=burst,
                seed=41,
            )
            new_index = (
                CagraIndex.build(
                    small_data, GraphBuildConfig(graph_degree=16, seed=13)
                )
                if chaos
                else None
            )
            with router:
                timers = []
                if chaos:
                    timers = [
                        threading.Timer(0.05, router.kill_replica, [2]),
                        threading.Timer(0.10, router.rolling_swap, [new_index]),
                    ]
                    for timer in timers:
                        timer.start()
                report = run_fleet_closed_loop(
                    router, router_queries, schedule, num_clients=2, k=10
                )
                for timer in timers:
                    timer.cancel()
                    timer.join()
                health = router.health()
            return report, router.stats(), health

        calm_report, _, _ = run(chaos=False)
        report, stats, health = run(chaos=True)

        # Zero failed requests: degraded service, never dropped service.
        assert report.count("failed") == 0 and report.count("timed_out") == 0
        assert report.count("ok") + report.count("quota") == self.REQUESTS
        assert report.count("ok") > 0 and report.count("quota") > 0

        # Quota rejections match the token-bucket model EXACTLY, chaos
        # or not — admission is decided on virtual arrival times.
        expected = expected_quota_outcomes(schedule, rate, burst)
        observed = {
            tenant: report.per_tenant("quota").get(tenant, 0)
            for tenant in expected
        }
        assert observed == expected
        assert calm_report.count("quota") == report.count("quota")

        # The kill and the rolling swap both actually happened mid-load.
        assert stats.replicas_dead == 1
        assert stats.rolling_swaps == 1
        assert health.status == "degraded"

        # Recall parity with the calm run within 0.01.
        def served_recall(rep):
            ok = rep.outcome == "ok"
            return recall(rep.indices[ok], router_truth[truth_rows[ok]])

        calm, stormy = served_recall(calm_report), served_recall(report)
        assert calm >= 0.95
        assert abs(calm - stormy) <= 0.01
