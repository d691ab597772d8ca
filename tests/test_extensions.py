"""Tests for the extension features: filtered search, refine, extend,
multi-GPU sharding."""

import numpy as np
import pytest

from repro import (
    CagraIndex,
    GraphBuildConfig,
    SearchConfig,
    ShardedCagraIndex,
    refine,
)
from repro.baselines import exact_search
from repro.core.metrics import recall


class TestFilteredSearch:
    def test_results_respect_mask(self, small_index, small_queries):
        mask = np.zeros(small_index.size, dtype=bool)
        mask[::3] = True
        result = small_index.search(
            small_queries, 5, SearchConfig(itopk=64), filter_mask=mask
        )
        assert (result.indices % 3 == 0).all()

    def test_filtered_recall_against_filtered_truth(
        self, small_index, small_data, small_queries
    ):
        mask = np.zeros(small_index.size, dtype=bool)
        mask[: small_index.size // 2] = True
        allowed = np.nonzero(mask)[0]
        truth_local, _ = exact_search(small_data[allowed], small_queries, 10)
        truth = allowed[truth_local.astype(np.int64)]
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=128), filter_mask=mask
        )
        assert recall(result.indices, truth) > 0.8

    def test_mask_shape_validated(self, small_index, small_queries):
        with pytest.raises(ValueError, match="one entry per dataset row"):
            small_index.search(
                small_queries, 5, filter_mask=np.ones(3, dtype=bool)
            )

    def test_all_false_mask_rejected(self, small_index, small_queries):
        with pytest.raises(ValueError, match="excludes every node"):
            small_index.search(
                small_queries, 5,
                filter_mask=np.zeros(small_index.size, dtype=bool),
            )

    def test_all_true_mask_matches_unfiltered(self, small_index, small_queries):
        config = SearchConfig(itopk=32, seed=3)
        plain = small_index.search(small_queries[:5], 5, config)
        masked = small_index.search(
            small_queries[:5], 5, config,
            filter_mask=np.ones(small_index.size, dtype=bool),
        )
        np.testing.assert_array_equal(plain.indices, masked.indices)

    def test_multi_cta_filtering(self, small_index, small_queries):
        mask = np.zeros(small_index.size, dtype=bool)
        mask[::2] = True
        result = small_index.search(
            small_queries[:3], 5, SearchConfig(itopk=64, algo="multi_cta"),
            filter_mask=mask,
        )
        assert (result.indices % 2 == 0).all()


class TestRefine:
    def test_refine_picks_true_best(self, small_data, small_queries):
        truth, truth_d = exact_search(small_data, small_queries, 5)
        # Candidates: the true top-10 shuffled — refine must recover top-5.
        wide, _ = exact_search(small_data, small_queries, 10)
        rng = np.random.default_rng(0)
        shuffled = np.take_along_axis(
            wide, rng.permuted(np.tile(np.arange(10), (len(wide), 1)), axis=1), axis=1
        )
        ids, dists = refine(small_data, small_queries, shuffled, 5)
        assert recall(ids, truth) == 1.0
        np.testing.assert_allclose(dists, truth_d, rtol=1e-4, atol=1e-3)

    def test_refine_handles_duplicates(self, small_data, small_queries):
        wide, _ = exact_search(small_data, small_queries, 5)
        doubled = np.hstack([wide, wide])
        ids, _ = refine(small_data, small_queries, doubled, 5)
        for row in ids:
            assert len(set(row.tolist())) == 5

    def test_refine_fp16_index_recovers_fp32_ranking(self, small_data, small_queries):
        """The production pattern: FP16 search + FP32 refine."""
        fp16 = CagraIndex.build(
            small_data, GraphBuildConfig(graph_degree=16, seed=3),
            dataset_dtype="float16",
        )
        truth, _ = exact_search(small_data, small_queries, 10)
        raw = fp16.search(small_queries, 20, SearchConfig(itopk=64))
        ids, _ = refine(small_data, small_queries, raw.indices, 10)
        assert recall(ids, truth) >= recall(raw.indices[:, :10], truth) - 1e-9

    def test_k_validation(self, small_data, small_queries):
        with pytest.raises(ValueError, match="exceeds candidate width"):
            refine(small_data, small_queries, np.zeros((25, 3), dtype=np.int64), 5)

    def test_metric_validation(self, small_data, small_queries):
        with pytest.raises(ValueError, match="metric"):
            refine(small_data, small_queries, np.zeros((25, 5), dtype=np.int64), 3,
                   metric="hamming")


class TestExtend:
    @pytest.fixture(scope="class")
    def base_and_extra(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((600, 24)).astype(np.float32)
        extra = rng.standard_normal((80, 24)).astype(np.float32)
        index = CagraIndex.build(base, GraphBuildConfig(graph_degree=8, seed=1))
        return base, extra, index

    def test_size_and_degree(self, base_and_extra):
        base, extra, index = base_and_extra
        bigger = index.extend(extra)
        assert bigger.size == 680
        assert bigger.degree == index.degree
        assert index.size == 600  # original untouched

    def test_new_vectors_retrievable(self, base_and_extra):
        """Every row keeps an in-edge (no reverse link evicts a new row's
        only one) and each new row finds its own id."""
        base, extra, index = base_and_extra
        bigger = index.extend(extra)
        assert bigger.graph.in_degrees().min() >= 1
        result = bigger.search(extra, 1, SearchConfig(itopk=64))
        found_self = np.mean(result.indices[:, 0] == 600 + np.arange(len(extra)))
        assert found_self >= 0.99

    def test_overall_recall_after_extend(self, base_and_extra):
        base, extra, index = base_and_extra
        bigger = index.extend(extra)
        full = np.vstack([base, extra])
        truth, _ = exact_search(full, full[:30], 5)
        result = bigger.search(full[:30], 5, SearchConfig(itopk=64))
        assert recall(result.indices, truth) > 0.85

    def test_dim_mismatch_rejected(self, base_and_extra):
        _, _, index = base_and_extra
        with pytest.raises(ValueError, match="dim"):
            index.extend(np.zeros((3, 7), dtype=np.float32))

    def test_extend_preserves_dtype(self, small_data):
        fp16 = CagraIndex.build(
            small_data[:300], GraphBuildConfig(graph_degree=8),
            dataset_dtype="float16",
        )
        bigger = fp16.extend(small_data[300:320])
        assert bigger.dataset.dtype == np.float16

    def test_repeated_small_extends_keep_paths_agreeing(self, base_and_extra):
        """Many small extends, then the reference and fast search paths
        must still agree on the grown graph (same results, high recall)."""
        base, extra, index = base_and_extra
        grown = index
        for start in range(0, 40, 8):
            grown = grown.extend(extra[start : start + 8])
        assert grown.size == index.size + 40
        assert grown.degree == index.degree

        queries = base[:20]
        config = SearchConfig(itopk=64, seed=1)
        reference = grown.search(queries, 10, config)
        fast = grown.search_fast(queries, 10, config)
        overlap = np.mean([
            len(np.intersect1d(a, b)) / 10
            for a, b in zip(reference.indices, fast.indices)
        ])
        assert overlap > 0.9  # same algorithm, different hash semantics

        full = np.vstack([base, extra[:40]])
        truth, _ = exact_search(full, queries, 10)
        assert recall(reference.indices, truth) > 0.85
        assert recall(fast.indices, truth) > 0.85

    def test_extend_id_space_overflow_rejected(self, base_and_extra, monkeypatch):
        """The 2**31 - 1 id-space cap (MSB parented flag) must hold on
        extend, not just build (core/index.py)."""
        import repro.core.index as index_module

        _, extra, index = base_and_extra
        monkeypatch.setattr(index_module, "MAX_DATASET_SIZE", index.size + 3)
        with pytest.raises(ValueError, match="id space"):
            index.extend(extra[:10])
        # Under the cap the same call still works.
        assert index.extend(extra[:3]).size == index.size + 3


class TestSharding:
    @pytest.fixture(scope="class")
    def sharded(self, small_data):
        return ShardedCagraIndex.build(
            small_data, 3, GraphBuildConfig(graph_degree=8, seed=2)
        )

    def test_partition_complete(self, sharded, small_data):
        assert sharded.size == len(small_data)
        all_ids = np.concatenate(sharded.assignments)
        assert len(np.unique(all_ids)) == len(small_data)

    def test_search_recall(self, sharded, small_queries, small_truth):
        result = sharded.search(small_queries, 10, SearchConfig(itopk=64))
        assert recall(result.indices, small_truth) > 0.9

    def test_global_ids_returned(self, sharded, small_data, small_queries):
        from repro.core.distances import distances_to_query

        result = sharded.search(small_queries[:3], 5, SearchConfig(itopk=32))
        for i in range(3):
            ref = distances_to_query(small_data, small_queries[i], result.indices[i])
            np.testing.assert_allclose(result.distances[i], ref, rtol=1e-3, atol=1e-3)

    def test_one_report_per_shard(self, sharded, small_queries):
        result = sharded.search(small_queries[:2], 5, SearchConfig(itopk=32))
        assert len(result.shard_reports) == 3

    def test_memory_bound_by_sharding(self, sharded, small_data):
        single = CagraIndex.build(small_data, GraphBuildConfig(graph_degree=8))
        assert sharded.max_shard_memory_bytes() < single.memory_bytes()

    def test_validation(self, small_data):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedCagraIndex.build(small_data, 0)
        with pytest.raises(ValueError, match="at least 2 vectors"):
            ShardedCagraIndex.build(small_data[:4], 3)

    def test_fast_path_matches_per_shard_fast(self, sharded, small_queries, small_truth):
        result = sharded.search_fast(small_queries, 10, SearchConfig(itopk=64))
        assert recall(result.indices, small_truth) > 0.9


class TestShardedMergeMasking:
    """Regression tests for the INDEX_MASK merge leak: unfilled per-shard
    slots used to be gathered through the assignment array as if id
    2**31 - 1 were a local row (IndexError, or worse a bogus global id)."""

    def test_k_exceeding_shard_size(self):
        from repro.core.graph import INDEX_MASK

        rng = np.random.default_rng(6)
        data = rng.standard_normal((24, 8)).astype(np.float32)
        sharded = ShardedCagraIndex.build(
            data, 4, GraphBuildConfig(graph_degree=4, seed=1)
        )
        # Each shard holds 6 points, so k=30 leaves every shard short.
        result = sharded.search(
            data[:3], 30, SearchConfig(itopk=32, seed=2)
        )
        filled = result.indices != INDEX_MASK
        assert filled.sum(axis=1).max() <= 24
        # Filled slots carry valid global ids, unfilled slots carry inf.
        assert result.indices[filled].max() < 24
        assert np.isposinf(result.distances[~filled]).all()
        # INDEX_MASK padding only in trailing positions.
        for row in filled:
            width = int(row.sum())
            assert row[:width].all() and not row[width:].any()

    def test_restrictive_filter_mask(self, small_data):
        from repro.core.graph import INDEX_MASK

        sharded = ShardedCagraIndex.build(
            small_data, 3, GraphBuildConfig(graph_degree=8, seed=2)
        )
        # ~1% selectivity: fewer allowed nodes than requested k.
        allowed = np.arange(0, len(small_data), 150)
        mask = np.zeros(len(small_data), dtype=bool)
        mask[allowed] = True
        result = sharded.search(
            small_data[:4], 10, SearchConfig(itopk=64, seed=3),
            filter_mask=mask,
        )
        filled = result.indices != INDEX_MASK
        assert set(result.indices[filled].tolist()) <= set(allowed.tolist())
        for row in filled:
            width = int(row.sum())
            assert row[:width].all() and not row[width:].any()

    def test_filter_mask_excluding_whole_shard(self, small_data):
        """A shard whose rows are all filtered out contributes nothing
        (and must not be searched — an all-False local mask is an error)."""
        sharded = ShardedCagraIndex.build(
            small_data, 3, GraphBuildConfig(graph_degree=8, seed=2)
        )
        # Round-robin assignment: shard 0 owns ids 0, 3, 6, ... — allow
        # only ids from shards 1 and 2.
        mask = np.zeros(len(small_data), dtype=bool)
        mask[np.arange(1, len(small_data), 3)] = True
        mask[np.arange(2, len(small_data), 3)] = True
        result = sharded.search(
            small_data[:4], 5, SearchConfig(itopk=64, seed=3),
            filter_mask=mask,
        )
        assert (result.indices % 3 != 0).all()
        assert len(result.shard_reports) == 3
        assert result.shard_reports[0].kernel_launches == 0

    def test_all_false_mask_rejected(self, small_data):
        sharded = ShardedCagraIndex.build(
            small_data[:60], 2, GraphBuildConfig(graph_degree=4, seed=1)
        )
        with pytest.raises(ValueError, match="excludes every node"):
            sharded.search(
                small_data[:2], 5, SearchConfig(itopk=32),
                filter_mask=np.zeros(60, dtype=bool),
            )

    def test_mask_shape_validated(self, small_data):
        sharded = ShardedCagraIndex.build(
            small_data[:60], 2, GraphBuildConfig(graph_degree=4, seed=1)
        )
        with pytest.raises(ValueError, match="one entry per dataset row"):
            sharded.search(
                small_data[:2], 5, filter_mask=np.ones(3, dtype=bool)
            )


class TestExtendUnfilledRepair:
    """Regression tests for the extend dangling-edge leak: unfilled
    INDEX_MASK slots in the extend search results used to be written into
    the graph verbatim as out-edges of the new nodes."""

    @staticmethod
    def _tiny_overdegree_index():
        """A degree-4 index over 3 nodes: any extend search asks for
        k=4 neighbors from a 3-node index, so one slot per new vector
        comes back unfilled (INDEX_MASK, +inf)."""
        from repro.core.graph import FixedDegreeGraph

        base = np.eye(3, 4, dtype=np.float32)
        neighbors = np.array(
            [[1, 2, 1, 2], [0, 2, 0, 2], [0, 1, 0, 1]], dtype=np.uint32
        )
        return CagraIndex(base, FixedDegreeGraph(neighbors))

    def test_no_sentinel_edges_after_overdegree_extend(self):
        from repro.core.graph import INDEX_MASK

        index = self._tiny_overdegree_index()
        bigger = index.extend(np.ones((2, 4), dtype=np.float32))
        assert not (bigger.graph.neighbors == INDEX_MASK).any()
        assert ((bigger.graph.neighbors & INDEX_MASK) < bigger.size).all()

    def test_extended_index_validates_clean(self):
        from repro import validate_index

        index = self._tiny_overdegree_index()
        bigger = index.extend(np.ones((2, 4), dtype=np.float32))
        report = validate_index(bigger)
        assert report.unfilled_edges == 0
        assert not any("INDEX_MASK" in e for e in report.errors)
        assert not any("out of range" in e for e in report.errors)

    def test_repair_is_deterministic(self):
        index = self._tiny_overdegree_index()
        extra = np.ones((2, 4), dtype=np.float32)
        a = index.extend(extra)
        b = index.extend(extra)
        np.testing.assert_array_equal(a.graph.neighbors, b.graph.neighbors)


class TestShardingPersistence:
    def test_save_load_roundtrip(self, small_data, tmp_path):
        from repro import SearchConfig

        original = ShardedCagraIndex.build(
            small_data[:400], 2, GraphBuildConfig(graph_degree=8, seed=1)
        )
        path = str(tmp_path / "sharded.npz")
        original.save(path)
        loaded = ShardedCagraIndex.load(path)
        assert loaded.num_shards == 2
        assert loaded.size == 400
        config = SearchConfig(itopk=32, seed=4)
        a = original.search(small_data[:5], 5, config)
        b = loaded.search(small_data[:5], 5, config)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestExtendPersistence:
    def test_extend_then_save_load(self, small_data, tmp_path):
        index = CagraIndex.build(
            small_data[:400], GraphBuildConfig(graph_degree=8, seed=1)
        )
        bigger = index.extend(small_data[400:450])
        path = str(tmp_path / "extended.npz")
        bigger.save(path)
        loaded = CagraIndex.load(path)
        assert loaded.size == 450
        config = SearchConfig(itopk=32, seed=2)
        a = bigger.search(small_data[:5], 5, config)
        b = loaded.search(small_data[:5], 5, config)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_repeated_extends(self, small_data):
        index = CagraIndex.build(
            small_data[:300], GraphBuildConfig(graph_degree=8, seed=1)
        )
        for start in range(300, 360, 20):
            index = index.extend(small_data[start : start + 20])
        assert index.size == 360
        result = index.search(small_data[:5], 5, SearchConfig(itopk=32))
        assert np.isfinite(result.distances[:, 0]).all()
