"""Tests for repro.parallel: config resolution, the shard executor and
its per-worker state, and cross-backend determinism of sharded builds
and searches."""

import multiprocessing
import os
import pickle
import warnings

import numpy as np
import pytest

from repro import GraphBuildConfig, SearchConfig, ShardedCagraIndex
from repro.parallel import (
    ParallelConfig,
    ShardExecutor,
    available_cpus,
    plan_shards,
)


class TestParallelConfig:
    def test_defaults(self):
        config = ParallelConfig()
        assert config.num_workers == 0
        assert config.backend == "auto"

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="cuda")
        with pytest.raises(ValueError, match="num_workers"):
            ParallelConfig(num_workers=-1)

    def test_explicit_workers_clamped_to_tasks(self):
        config = ParallelConfig(num_workers=8)
        assert config.resolved_workers(num_tasks=3) == 3
        assert config.resolved_workers(num_tasks=100) == 8

    def test_auto_workers_use_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        config = ParallelConfig()
        assert config.resolved_workers(num_tasks=10_000) == available_cpus()

    def test_single_worker_resolves_serial(self):
        config = ParallelConfig(num_workers=1, backend="process")
        assert config.resolved_backend(num_tasks=4) == "serial"

    def test_single_task_resolves_serial(self):
        config = ParallelConfig(num_workers=4, backend="process")
        assert config.resolved_backend(num_tasks=1) == "serial"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")
        config = ParallelConfig()  # both fields at their defaults
        assert config.resolved_workers(num_tasks=8) == 3
        assert config.resolved_backend(num_tasks=8) == "thread"

    def test_explicit_fields_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")
        config = ParallelConfig(num_workers=2, backend="process")
        assert config.resolved_workers(num_tasks=8) == 2
        assert config.resolved_backend(num_tasks=8) == "process"


def _square(payload):
    return payload * payload


def _pid_of(payload):
    return os.getpid()


class TestShardExecutor:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_preserves_order(self, backend):
        with ShardExecutor(num_workers=2, backend=backend) as executor:
            assert executor.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_empty_map(self):
        with ShardExecutor() as executor:
            assert executor.map(_square, []) == []

    def test_one_worker_downgrades_to_serial(self):
        executor = ShardExecutor(num_workers=1, backend="process")
        assert executor.backend == "serial"

    def test_process_backend_uses_other_processes(self):
        with ShardExecutor(num_workers=2, backend="process") as executor:
            pids = executor.map(_pid_of, [0, 1, 2, 3])
        assert any(pid != os.getpid() for pid in pids)

    def test_unpicklable_payload_falls_back_to_serial(self):
        # A lambda in the payload cannot cross the process boundary; the
        # executor must warn, downgrade, and still return correct results.
        with ShardExecutor(num_workers=2, backend="process") as executor:
            with pytest.warns(RuntimeWarning, match="re-running"):
                results = executor.map(_call_it, [lambda: 7, lambda: 8])
            assert results == [7, 8]
            assert executor.backend == "serial"

    def test_from_config_resolution(self):
        executor = ShardExecutor.from_config(
            ParallelConfig(num_workers=2, backend="thread"), num_tasks=4
        )
        assert executor.num_workers == 2
        assert executor.backend == "thread"
        executor.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ShardExecutor(backend="gpu")
        with pytest.raises(ValueError, match="num_workers"):
            ShardExecutor(num_workers=0)

    def test_close_idempotent(self):
        executor = ShardExecutor(num_workers=2, backend="thread")
        executor.map(_square, [1, 2])
        executor.close()
        executor.close()
        # Serial maps keep working after close.
        assert executor.map(_square, [3]) == [9]


def _call_it(fn):
    return fn()


def _row_of_state(state, payload):
    return state[payload]


class _NeverPickled:
    """Executor state that fails loudly if it is ever pickled."""

    rows = (10, 11, 12, 13)

    def __getitem__(self, i):
        return self.rows[i]

    def __reduce__(self):
        raise pickle.PicklingError("executor state was pickled")


class TestExecutorState:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_tasks_receive_the_state(self, backend):
        state = np.arange(40).reshape(4, 10)
        with ShardExecutor(num_workers=2, backend=backend, state=state) as executor:
            rows = executor.map(_row_of_state, [3, 0, 2, 1])
        for row, i in zip(rows, [3, 0, 2, 1]):
            np.testing.assert_array_equal(row, state[i])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_workers_inherit_the_state(self):
        # Under fork the state reaches each worker at start-up with no
        # pickling at all, so an unpicklable state still runs pooled:
        # nothing per task carries it.
        with ShardExecutor(
            num_workers=2, backend="process", state=_NeverPickled()
        ) as executor:
            assert executor.map(_row_of_state, [0, 1, 2, 3]) == [10, 11, 12, 13]
            assert executor.backend == "process"
        assert executor.stats.serial_fallbacks == 0


class TestPlanShards:
    def test_round_robin_partition(self):
        plans = plan_shards(10, 3, GraphBuildConfig(graph_degree=4, seed=5))
        all_ids = np.concatenate([plan.ids for plan in plans])
        assert sorted(all_ids.tolist()) == list(range(10))
        np.testing.assert_array_equal(plans[1].ids, [1, 4, 7])

    def test_per_shard_seed_offsets(self):
        plans = plan_shards(10, 3, GraphBuildConfig(graph_degree=4, seed=5))
        assert [plan.config.seed for plan in plans] == [5, 6, 7]

    def test_degree_capped_by_population(self):
        # 3 points per shard cannot support degree 32.
        plans = plan_shards(12, 4, GraphBuildConfig(graph_degree=32))
        assert all(plan.config.graph_degree == 2 for plan in plans)


class TestCrossBackendDeterminism:
    """The tentpole guarantee: every backend produces bitwise-identical
    graphs and search results."""

    @pytest.fixture(scope="class")
    def payload(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((360, 24)).astype(np.float32)
        queries = rng.standard_normal((8, 24)).astype(np.float32)
        return data, queries

    @pytest.fixture(scope="class")
    def serial_index(self, payload):
        data, _ = payload
        return ShardedCagraIndex.build(
            data, 4, GraphBuildConfig(graph_degree=8, seed=3),
            parallel=ParallelConfig(num_workers=1, backend="serial"),
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_build_bitwise_identical(self, payload, serial_index, backend):
        data, _ = payload
        index = ShardedCagraIndex.build(
            data, 4, GraphBuildConfig(graph_degree=8, seed=3),
            parallel=ParallelConfig(num_workers=2, backend=backend),
        )
        for ours, theirs in zip(index.shards, serial_index.shards):
            np.testing.assert_array_equal(
                ours.graph.neighbors, theirs.graph.neighbors
            )
        index.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_search_bitwise_identical(self, payload, serial_index, backend):
        data, queries = payload
        config = SearchConfig(itopk=32, seed=9)
        expected = serial_index.search(queries, 10, config)
        index = ShardedCagraIndex.build(
            data, 4, GraphBuildConfig(graph_degree=8, seed=3),
            parallel=ParallelConfig(num_workers=2, backend=backend),
        )
        got = index.search(queries, 10, config)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)
        fast_expected = serial_index.search_fast(queries, 10, config)
        fast_got = index.search_fast(queries, 10, config)
        np.testing.assert_array_equal(fast_got.indices, fast_expected.indices)
        index.close()

    def test_repeated_process_searches_reuse_pool(self, payload, serial_index):
        """The persistent pool + shared-memory handle path: repeated
        searches on one index must stay correct (and identical)."""
        data, queries = payload
        index = ShardedCagraIndex.build(
            data, 4, GraphBuildConfig(graph_degree=8, seed=3),
            parallel=ParallelConfig(num_workers=2, backend="process"),
        )
        config = SearchConfig(itopk=32, seed=9)
        expected = serial_index.search(queries, 10, config)
        for _ in range(3):
            got = index.search(queries, 10, config)
            np.testing.assert_array_equal(got.indices, expected.indices)
        index.close()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_backend_every_start_method(
        self, payload, serial_index, start_method, monkeypatch
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method on this platform")
        monkeypatch.setattr(
            "repro.parallel.executor._process_context",
            lambda: multiprocessing.get_context(start_method),
        )
        data, queries = payload
        config = SearchConfig(itopk=32, seed=9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = ShardedCagraIndex.build(
                data, 4, GraphBuildConfig(graph_degree=8, seed=3),
                parallel=ParallelConfig(num_workers=2, backend="process"),
            )
            got = index.search(queries, 10, config)
            fast_got = index.search_fast(queries, 10, config)
        assert not [w for w in caught if "serially" in str(w.message)]
        for ours, theirs in zip(index.shards, serial_index.shards):
            np.testing.assert_array_equal(ours.graph.neighbors, theirs.graph.neighbors)
        expected = serial_index.search(queries, 10, config)
        fast_expected = serial_index.search_fast(queries, 10, config)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)
        np.testing.assert_array_equal(fast_got.indices, fast_expected.indices)
        np.testing.assert_array_equal(fast_got.distances, fast_expected.distances)
        assert index.executor_stats["serial_fallbacks"] == 0
        index.close()

    def test_per_call_parallel_override(self, payload, serial_index):
        data, queries = payload
        config = SearchConfig(itopk=32, seed=9)
        expected = serial_index.search(queries, 10, config)
        got = serial_index.search(
            queries, 10, config,
            parallel=ParallelConfig(num_workers=2, backend="thread"),
        )
        np.testing.assert_array_equal(got.indices, expected.indices)

    def test_shard_seconds_reported(self, payload, serial_index):
        _, queries = payload
        result = serial_index.search(queries, 5, SearchConfig(itopk=32))
        assert len(result.shard_seconds) == serial_index.num_shards
        assert all(seconds >= 0.0 for seconds in result.shard_seconds)


class TestShardEngineReuse:
    def test_fp16_search_converts_each_shard_once(self, monkeypatch):
        """A shard search runs on the shard's cached engine, so repeated
        fp16 searches convert each shard's dataset once, not per call."""
        import repro.core.traversal as traversal

        conversions = []
        convert = traversal.as_storage_dtype

        def counting(data, dtype):
            conversions.append(dtype)
            return convert(data, dtype)

        monkeypatch.setattr(traversal, "as_storage_dtype", counting)
        rng = np.random.default_rng(4)
        data = rng.standard_normal((240, 16)).astype(np.float32)
        index = ShardedCagraIndex.build(
            data, 2, GraphBuildConfig(graph_degree=8, seed=1),
            parallel=ParallelConfig(num_workers=1, backend="serial"),
        )
        config = SearchConfig(itopk=32, seed=0, precision="fp16")
        for _ in range(5):
            index.search_fast(data[:4], 5, config)
            index.search(data[:4], 5, config)
        assert conversions == ["float16"] * index.num_shards
        index.close()


class TestServeShardedIndex:
    def test_server_accepts_sharded_index(self):
        from repro.serve import CagraServer, ServeConfig

        rng = np.random.default_rng(2)
        data = rng.standard_normal((200, 16)).astype(np.float32)
        index = ShardedCagraIndex.build(
            data, 2, GraphBuildConfig(graph_degree=8, seed=1),
            parallel=ParallelConfig(num_workers=1, backend="serial"),
        )
        with CagraServer(index, ServeConfig(max_batch=8, max_wait_ms=1.0)) as server:
            result = server.search(data[3], k=5)
        assert result.indices.shape == (5,)
        assert int(result.indices[0]) == 3  # self-match on its own row
        index.close()


def _fail_on_even(payload):
    if payload % 2 == 0:
        raise ValueError(f"even payload {payload}")
    return payload


class TestExecutorStats:
    """The stats counters are bumped from scheduler threads; they must be
    internally consistent and safe under concurrent increments."""

    def test_totals_consistent_after_mixed_outcomes(self):
        from repro.resilience import RetryPolicy

        with ShardExecutor(
            num_workers=4, backend="thread",
            retry=RetryPolicy(max_retries=0),
        ) as executor:
            outcomes = executor.map_outcomes(_fail_on_even, list(range(16)))
        stats = executor.stats
        assert len(outcomes) == 16
        assert stats.tasks == 16
        assert stats.completed + stats.failed == stats.tasks
        assert stats.failed == 8

    def test_retry_accounting_stays_consistent(self):
        from repro.resilience import RetryPolicy

        with ShardExecutor(
            num_workers=2, backend="thread",
            retry=RetryPolicy(
                max_retries=1, backoff_base_ms=0.0, backoff_max_ms=0.0
            ),
        ) as executor:
            outcomes = executor.map_outcomes(_fail_on_even, list(range(8)))
        stats = executor.stats
        assert len(outcomes) == 8
        assert stats.completed + stats.failed == stats.tasks
        assert stats.retries == 4  # each even payload retried exactly once

    def test_increment_is_atomic_under_threads(self):
        import threading

        from repro.parallel.executor import ExecutorStats

        stats = ExecutorStats()
        barrier = threading.Barrier(8)

        def bump():
            barrier.wait()
            for _ in range(1000):
                stats.increment("completed")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.completed == 8000

    def test_increment_rejects_unknown_counter(self):
        from repro.parallel.executor import ExecutorStats

        stats = ExecutorStats()
        with pytest.raises(AttributeError):
            stats.increment("not_a_counter")

    def test_as_dict_excludes_internals(self):
        from repro.parallel.executor import ExecutorStats

        snapshot = ExecutorStats().as_dict()
        assert "_lock" not in snapshot
        assert set(snapshot) == {
            "tasks", "completed", "failed", "retries", "timeouts",
            "pool_recycles", "serial_fallbacks",
        }
