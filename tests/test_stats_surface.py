"""The serving metrics surface, pinned.

``tests/fixtures/stats_surface.json`` was recorded at the commit *before*
``ServeStats`` / ``RouterStats`` became field-derived views over one
``MetricSet``: the key sets of every JSON payload the stats classes emit,
plus the ``to_dict()`` values and exact ``summary()`` text of two
hand-built snapshots.  The rebuilt classes must reproduce it, and the
table-driven tests below keep the declaration the only list of names.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from repro.router import FleetHealth, RouterStats
from repro.serve import CagraServer, ServeStats
from repro.serve.stats import (
    FOLD_RULES,
    LATENCY_WINDOW,
    MetricSet,
    fold_fleet,
    latency_summary,
    metric,
)

SURFACE = Path(__file__).parent / "fixtures" / "stats_surface.json"

#: A snapshot with every optional ``summary()`` line present.
_SERVE_VALUES = dict(
    submitted=120, completed=111, cache_hits=30, cache_misses=120, rejected=2,
    timed_out=3, failed=4, batches=20, coalesced_batches=15,
    single_query_batches=5, batch_size_histogram={1: 5, 4: 3, 8: 12},
    queue_depth=6, max_queue_depth=17, index_swaps=2, degraded_batches=3,
    shard_failures=4, batch_splits=1, retried_batches=2, breaker_trips=1,
    recent_failure_rate=0.125, inserts=7, insert_rows=70, deletes=3,
    delete_rows=9, rebuilds_incremental=2, rebuilds_full=1,
    last_promotion_ms=1.5, memtable_rows=12, tombstone_ratio=0.031,
    latency_mean_ms=2.5, latency_p50_ms=2.0, latency_p95_ms=6.25,
    latency_p99_ms=9.5, latency_max_ms=11.0,
)


def _replica(state: str, dispatched: int) -> dict:
    return {
        "state": state, "ewma_ms": 1.25, "latency_samples": dispatched,
        "inflight": 0, "queue_depth": 1, "dispatched": dispatched,
        "hedges": 2, "wins": dispatched - 1, "failures": 1, "breaker": None,
    }


def hand_built_serve() -> ServeStats:
    return ServeStats(**_SERVE_VALUES)


def hand_built_router() -> RouterStats:
    """Two replicas (one draining), one tenant over quota."""
    return RouterStats(
        **_SERVE_VALUES,
        replicas=2, replicas_active=1, replicas_draining=1, replicas_dead=0,
        routed=40, routed_failed=1, hedges_issued=8, hedges_won=3,
        failovers=2, quota_rejections=5,
        quota_rejections_by_tenant={"tenant-0": 5}, rolling_swaps=1,
        per_replica={0: _replica("active", 25), 1: _replica("draining", 15)},
    )


def hand_built_health() -> FleetHealth:
    return FleetHealth(
        status="degraded",
        replicas={0: _replica("active", 25), 1: _replica("draining", 15)},
        open_breakers=[1],
        hedge_rate=0.2,
        quota_rejections=5,
        quotas={"rate_qps": 10.0, "burst": 2.0, "admitted": {}, "rejected": {}},
    )


def surface(index) -> dict:
    """Everything the fixture pins, computed from the live classes."""
    return {
        "serve_keys": sorted(ServeStats().to_dict()),
        "router_keys": sorted(RouterStats().to_dict()),
        "fleet_health_keys": sorted(hand_built_health().to_dict()),
        "server_health_keys": sorted(CagraServer(index).health()),
        "serve_to_dict": hand_built_serve().to_dict(),
        "router_to_dict": hand_built_router().to_dict(),
        "serve_summary": hand_built_serve().summary(),
        "router_summary": hand_built_router().summary(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SURFACE.read_text())


class TestPinnedSurface:
    def test_whole_surface_reproduced(self, pinned, small_index):
        # Through JSON so int histogram keys etc. compare as emitted.
        live = json.loads(json.dumps(surface(small_index)))
        assert live.keys() == pinned.keys()
        for name in pinned:
            assert live[name] == pinned[name], name

    def test_summary_has_every_optional_line(self, pinned):
        for line in ("resilience", "freshness", "rebuilds", "quotas",
                     "replica 0", "replica 1", "batch sizes"):
            assert f"  {line}" in pinned["router_summary"]


class TestOneDeclarationPerMetric:
    @pytest.mark.parametrize("view", [ServeStats, RouterStats])
    def test_every_field_is_in_to_dict(self, view):
        payload = view().to_dict()
        assert {f.name for f in fields(view)} <= payload.keys()

    @pytest.mark.parametrize("view", [ServeStats, RouterStats])
    def test_every_field_has_a_fleet_rule(self, view):
        for f in fields(view):
            assert f.metadata.get("fold") in FOLD_RULES, f.name

    def test_router_own_fields_are_supplied_by_the_fleet_tier(self):
        base = {f.name for f in fields(ServeStats)}
        for f in fields(RouterStats):
            if f.name not in base:
                assert f.metadata["fold"] == "fleet", f.name

    def test_new_sum_field_is_folded_without_editing_the_router(self):
        @dataclass(frozen=True)
        class Extended(ServeStats):
            gpu_retries: int = metric("sum", "counter")

        folded = fold_fleet(
            [
                Extended(gpu_retries=3, submitted=2, max_queue_depth=4,
                         batch_size_histogram={1: 1, 8: 2}),
                Extended(gpu_retries=4, submitted=5, max_queue_depth=9,
                         batch_size_histogram={8: 1}),
            ]
        )
        assert folded["gpu_retries"] == 7
        assert folded["submitted"] == 7
        assert folded["max_queue_depth"] == 9
        assert folded["batch_size_histogram"] == {1: 1, 8: 3}
        # Fleet-supplied fields are the fleet tier's to fill, not folded.
        assert "latency_p50_ms" not in folded

    def test_fold_matches_router_stats(self, small_index):
        """``ShardRouter.stats()`` is the fold plus its own counters."""
        from repro.router import ShardRouter

        router = ShardRouter.build(small_index, num_replicas=2)
        stats = router.stats()
        folded = fold_fleet([r.server.stats() for r in router.replicas])
        assert folded.keys() == {
            f.name for f in fields(ServeStats) if f.metadata["fold"] != "fleet"
        }
        for name, value in folded.items():
            assert getattr(stats, name) == value, name


class TestLatencySummary:
    def test_empty_sample_is_all_zero(self):
        assert latency_summary([]) == {
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0
        }

    def test_matches_numpy(self):
        import numpy as np

        sample = np.random.default_rng(3).exponential(2.0, size=500)
        summary = latency_summary(sample)
        p50, p95, p99 = np.percentile(sample, [50.0, 95.0, 99.0])
        assert summary == {
            "mean": float(sample.mean()), "p50": float(p50),
            "p95": float(p95), "p99": float(p99), "max": float(sample.max()),
        }
        assert latency_summary(sample, (90,)).keys() == {"mean", "p90", "max"}


class TestMetricSetThreadSafety:
    THREADS = 8
    UPDATES = 5_000

    def test_exact_totals_under_contention(self):
        metrics = MetricSet(ServeStats)

        def worker(tid: int) -> None:
            for i in range(self.UPDATES):
                step = i % 4
                if step == 0:
                    metrics.record(submitted=1, max_queue_depth=tid * self.UPDATES + i)
                elif step == 1:
                    metrics.record(completed=1, latency_s=1e-3, ok=True)
                elif step == 2:
                    metrics.record(batches=1, batch_size_histogram=1 + i % 3)
                else:
                    metrics.record(failed=1, ok=False, inserts=1, insert_rows=5)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside record()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        each = self.THREADS * self.UPDATES // 4
        snap = ServeStats(**metrics.snapshot())
        assert snap.submitted == snap.completed == snap.batches == each
        assert snap.inserts == snap.failed == each and snap.insert_rows == 5 * each
        assert sum(snap.batch_size_histogram.values()) == each
        assert snap.max_queue_depth == self.THREADS * self.UPDATES - 4
        assert snap.latency_p50_ms == pytest.approx(1.0)
        assert 0.0 < snap.recent_failure_rate < 1.0

    def test_latency_window_is_bounded(self):
        metrics = MetricSet(ServeStats)
        for _ in range(LATENCY_WINDOW + 10):
            metrics.record(latency_s=0.0)
        assert len(metrics._latencies) == LATENCY_WINDOW

    def test_misnamed_metric_or_rule_fails_where_it_is_written(self):
        with pytest.raises(KeyError):
            MetricSet(ServeStats).record(submited=1)
        with pytest.raises(KeyError):
            MetricSet(ServeStats).record(queue_depth=3)  # a gauge: not recorded
        with pytest.raises(ValueError):
            metric("summ", "counter")
