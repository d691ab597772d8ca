"""Tests for repro.serve: micro-batching, backpressure, cache, hot swap.

The integration test at the bottom is the acceptance scenario: a seeded
Poisson load of 500+ queries must coalesce batches, dispatch a batch-of-1
to the multi-CTA path, survive a mid-traffic index swap with zero
failures, match the offline fast path's recall, and — under a saturating
arrival rate — reject and time out requests without deadlocking.
"""

import threading
import time

import numpy as np
import pytest

from repro import CagraIndex, SearchConfig
from repro.baselines import exact_search
from repro.core.metrics import recall
from repro.datasets.synthetic import make_queries
from repro.serve import (
    CagraServer,
    RequestTimeout,
    ResultCache,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    run_closed_loop,
    run_open_loop,
)

SEARCH = SearchConfig(itopk=64, seed=5)


@pytest.fixture()
def serve_queries(small_data):
    return make_queries(small_data, 40, seed=21)


def make_server(index, **overrides) -> CagraServer:
    defaults = dict(
        max_batch=16, max_wait_ms=4.0, queue_capacity=1024, cache_capacity=0
    )
    defaults.update(overrides)
    return CagraServer(index, ServeConfig(**defaults), search_config=SEARCH)


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(2)
        ids = np.arange(3, dtype=np.uint32)
        dists = np.zeros(3)
        cache.put(("a",), ids, dists)
        cache.put(("b",), ids, dists)
        assert cache.get(("a",)) is not None  # refreshes "a"
        cache.put(("c",), ids, dists)  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None and cache.get(("c",)) is not None

    def test_returns_copies(self):
        cache = ResultCache(4)
        ids = np.arange(3, dtype=np.uint32)
        cache.put(("k",), ids, np.zeros(3))
        got_ids, _ = cache.get(("k",))
        got_ids[0] = 99
        fresh_ids, _ = cache.get(("k",))
        assert fresh_ids[0] == 0

    def test_clear(self):
        cache = ResultCache(4)
        cache.put(("k",), np.arange(2, dtype=np.uint32), np.zeros(2))
        cache.clear()
        assert len(cache) == 0 and cache.get(("k",)) is None


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_batch=0),
            dict(max_wait_ms=-1.0),
            dict(queue_capacity=0),
            dict(default_timeout_ms=-5.0),
            dict(cache_capacity=-1),
            dict(default_k=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestDispatch:
    def test_lone_query_takes_multi_cta_path(self, small_index, serve_queries):
        """A batch-of-1 flush must match the multi-CTA reference search."""
        server = make_server(small_index)
        with server:
            result = server.search(serve_queries[0], k=10)
        direct = small_index.search(
            serve_queries[:1], 10,
            config=SEARCH.with_overrides(algo="multi_cta"),
            num_sms=server.config.num_sms,
        )
        stats = server.stats()
        assert stats.single_query_batches == 1 and stats.coalesced_batches == 0
        assert np.array_equal(result.indices, direct.indices[0])

    def test_coalesced_batch_matches_fast_path(self, small_index, serve_queries):
        """Requests queued before start flush as ONE batch == search_fast."""
        server = make_server(small_index, max_batch=8)
        handles = [server.submit(serve_queries[i], k=10) for i in range(8)]
        with server:
            answers = [handle.result() for handle in handles]
        direct = small_index.search_fast(serve_queries[:8], 10, config=SEARCH)
        stats = server.stats()
        assert stats.batch_size_histogram == {8: 1}
        assert stats.coalesced_batches == 1
        for row, answer in enumerate(answers):
            assert np.array_equal(answer.indices, direct.indices[row])
            assert np.allclose(answer.distances, direct.distances[row])

    def test_poisoned_request_never_joins_a_batch(self, small_index, serve_queries):
        """A NaN query is refused at ``submit``; the 15 healthy requests
        queued around it run as one batch, with nothing to bisect."""
        server = make_server(small_index, max_batch=16)
        poisoned = serve_queries[15].copy()
        poisoned[2] = np.nan
        handles = [server.submit(serve_queries[i], k=10) for i in range(8)]
        with pytest.raises(ValueError, match="query row 0 contains NaN or inf"):
            server.submit(poisoned, k=10)
        handles += [server.submit(serve_queries[i], k=10) for i in range(8, 15)]
        with server:
            answers = [handle.result() for handle in handles]
        assert len(answers) == 15
        stats = server.stats()
        assert stats.batch_size_histogram == {15: 1}
        assert (stats.batch_splits, stats.retried_batches, stats.failed) == (0, 0, 0)

    def test_mixed_k_in_one_batch(self, small_index, serve_queries):
        server = make_server(small_index, max_batch=4)
        handles = [
            server.submit(serve_queries[i], k=k) for i, k in enumerate((1, 5, 10, 3))
        ]
        with server:
            answers = [handle.result() for handle in handles]
        assert [len(a.indices) for a in answers] == [1, 5, 10, 3]


class TestCacheIntegration:
    def test_repeat_query_hits_cache(self, small_index, serve_queries):
        server = make_server(small_index, cache_capacity=64)
        with server:
            first = server.search(serve_queries[0], k=10)
            second = server.search(serve_queries[0], k=10)
        assert not first.from_cache and second.from_cache
        assert np.array_equal(first.indices, second.indices)
        stats = server.stats()
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_different_k_misses(self, small_index, serve_queries):
        server = make_server(small_index, cache_capacity=64)
        with server:
            server.search(serve_queries[0], k=10)
            result = server.search(serve_queries[0], k=5)
        assert not result.from_cache

    def test_swap_invalidates_cache(self, small_index, serve_queries):
        server = make_server(small_index, cache_capacity=64)
        with server:
            server.search(serve_queries[0], k=10)
            server.swap_index(
                CagraIndex(
                    small_index.dataset, small_index.graph, metric=small_index.metric
                )
            )
            after = server.search(serve_queries[0], k=10)
        assert not after.from_cache


class TestBackpressure:
    def test_full_queue_rejects(self, small_index, serve_queries):
        server = make_server(small_index, queue_capacity=4)
        # Not started: nothing drains the queue, so the 5th must bounce.
        for i in range(4):
            server.submit(serve_queries[i], k=5)
        with pytest.raises(ServerOverloaded):
            server.submit(serve_queries[4], k=5)
        assert server.stats().rejected == 1
        server.start()
        server.stop(drain=True)
        assert server.stats().completed == 4

    def test_deadline_expires_while_queued(self, small_index, serve_queries):
        server = make_server(small_index)
        handle = server.submit(serve_queries[0], k=5, timeout_ms=20.0)
        time.sleep(0.05)  # deadline passes before the scheduler ever runs
        server.start()
        with pytest.raises(RequestTimeout):
            handle.result()
        server.stop()
        stats = server.stats()
        assert stats.timed_out == 1 and stats.completed == 0

    def test_stop_without_drain_fails_pending(self, small_index, serve_queries):
        server = make_server(small_index)
        handles = [server.submit(serve_queries[i], k=5) for i in range(3)]
        server.stop(drain=False)
        for handle in handles:
            with pytest.raises(ServerClosed):
                handle.result()
        assert server.stats().failed == 3

    def test_submit_after_stop_rejected(self, small_index, serve_queries):
        server = make_server(small_index)
        server.start()
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit(serve_queries[0])

    def test_stop_idempotent_and_restart_refused(self, small_index):
        server = make_server(small_index)
        server.start()
        server.stop()
        server.stop()
        with pytest.raises(ServerClosed):
            server.start()


class TestSwap:
    def test_dim_mismatch_rejected(self, small_index, tiny_data):
        other = CagraIndex.build(tiny_data)
        server = make_server(small_index)
        with pytest.raises(ValueError, match="dim"):
            server.swap_index(other)

    def test_swap_serves_new_content(self, small_index, small_data):
        extra = make_queries(small_data, 16, seed=33)
        grown = small_index.extend(extra)
        server = make_server(small_index)
        with server:
            server.swap_index(grown)
            hit = server.search(extra[0], k=1)
        assert int(hit.indices[0]) == small_index.size  # the new vector itself
        assert server.stats().index_swaps == 1


class TestValidation:
    def test_bad_query_dim(self, small_index):
        server = make_server(small_index)
        with pytest.raises(ValueError, match="dim"):
            server.submit(np.zeros(3, dtype=np.float32))

    def test_bad_k(self, small_index, serve_queries):
        server = make_server(small_index)
        with pytest.raises(ValueError, match="k"):
            server.submit(serve_queries[0], k=-1)


class _SlowIndex(CagraIndex):
    """Index whose batch path takes a fixed wall time (saturation tests)."""

    def __init__(self, inner: CagraIndex, delay_seconds: float):
        super().__init__(inner.dataset, inner.graph, metric=inner.metric)
        self._delay_seconds = delay_seconds

    def search_fast(self, *args, **kwargs):
        time.sleep(self._delay_seconds)
        return super().search_fast(*args, **kwargs)

    def search(self, *args, **kwargs):
        time.sleep(self._delay_seconds)
        return super().search(*args, **kwargs)


class TestIntegration:
    def test_seeded_poisson_load_with_mid_traffic_swap(
        self, small_index, small_data, serve_queries
    ):
        """Acceptance scenario: 500+ seeded Poisson queries, coalescing,
        a guaranteed multi-CTA batch-of-1, a mid-traffic swap with zero
        failures, and recall parity with the offline fast path."""
        server = CagraServer(
            small_index,
            ServeConfig(
                max_batch=32, max_wait_ms=4.0, queue_capacity=4096, cache_capacity=0
            ),
            search_config=SEARCH,
        )
        # Pre-start burst: queued together, so the first flush is a
        # deterministic coalesced batch of 8.
        burst = [server.submit(serve_queries[i], k=10) for i in range(8)]

        swap_clone = CagraIndex(
            small_index.dataset, small_index.graph, metric=small_index.metric
        )
        swap_done = threading.Event()

        def swapper():
            while server.stats().completed < 150:
                time.sleep(0.002)
            server.swap_index(swap_clone)  # same graph: results unchanged
            swap_done.set()

        swap_thread = threading.Thread(target=swapper)
        with server:
            # Flush the burst before offering more load: the queue holds
            # exactly 8 requests, so the first flush is a deterministic
            # coalesced batch of 8.
            for handle in burst:
                handle.result()
            swap_thread.start()
            report = run_open_loop(
                server, serve_queries, rate_qps=900.0, num_requests=512, seed=13
            )
            swap_thread.join(timeout=30.0)
            # Queue is drained; a lone submit is a guaranteed batch-of-1
            # dispatched to the multi-CTA reference path.
            lone = server.search(serve_queries[0], k=10)

        stats = server.stats()
        # (c) zero failed/dropped requests around the mid-traffic swap
        assert swap_done.is_set() and stats.index_swaps == 1
        assert len(report) == 512 and report.count("ok") == 512
        assert report.count("rejected") == 0 and report.count("timed_out") == 0
        assert report.count("failed") == 0
        assert stats.failed == 0 and stats.completed == 512 + 8 + 1

        # (a) at least one coalesced batch and one multi-CTA batch-of-1
        assert stats.batch_size_histogram.get(8, 0) >= 1
        assert stats.coalesced_batches >= 1
        assert stats.single_query_batches >= 1
        assert stats.batch_size_histogram.get(1, 0) >= 1
        assert lone.indices.shape == (10,)

        # (b) recall within 0.01 of the offline fast path on the same pool
        truth, _ = exact_search(small_data, serve_queries, 10)
        rows, found = report.answers()
        served_recall = recall(found, truth[rows])
        offline = small_index.search_fast(serve_queries, 10, config=SEARCH)
        offline_recall = recall(offline.indices, truth)
        assert abs(served_recall - offline_recall) <= 0.01

    def test_saturation_rejects_and_times_out_then_drains(
        self, small_index, serve_queries
    ):
        """(d) Under a saturating arrival rate the bounded queue rejects,
        queued deadlines expire, and shutdown still drains cleanly."""
        slow = _SlowIndex(small_index, delay_seconds=0.005)
        server = CagraServer(
            slow,
            ServeConfig(
                max_batch=4,
                max_wait_ms=1.0,
                queue_capacity=32,
                default_timeout_ms=25.0,
                cache_capacity=0,
            ),
            search_config=SEARCH,
        )
        with server:
            report = run_open_loop(
                server, serve_queries, rate_qps=5000.0, num_requests=300, seed=17
            )
        stats = server.stats()
        assert len(report) == 300
        assert report.count("rejected") > 0, "bounded queue never pushed back"
        assert report.count("timed_out") > 0, "no deadline ever expired"
        assert report.count("failed") == 0
        assert (
            report.count("ok") + report.count("rejected") + report.count("timed_out")
            == 300
        ), "requests lost or double-counted"
        assert stats.rejected == report.count("rejected")
        assert stats.timed_out == report.count("timed_out")
        # Clean drain: nothing left queued, scheduler exited.
        assert server.stats().queue_depth == 0

    def test_closed_loop_self_limits(self, small_index, serve_queries):
        server = make_server(small_index, max_batch=8)
        with server:
            report = run_closed_loop(
                server, serve_queries, num_clients=6, requests_per_client=10
            )
        assert report.count("ok") == 60
        assert report.count("rejected") == 0 and report.count("failed") == 0
        assert server.stats().max_queue_depth <= 6  # never more than one per client
