"""Unit tests for repro.core.index (CagraIndex public API)."""

import os
from unittest import mock

import numpy as np
import pytest

from repro import CagraIndex, FixedDegreeGraph, GraphBuildConfig, SearchConfig
from repro.core.distances import METRICS, as_storage_dtype
from repro.core.metrics import recall
from repro.core.nn_descent import build_knn_graph

BUILD_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "build_regression.npz"
)
TINY_BUILD_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "build_regression_tiny.npz"
)


def _build_regression_outputs() -> dict[str, np.ndarray]:
    """Everything a build decides, for metric x reordering x storage dtype.

    240 x 12 rows: Gaussian, with rows 10-19 exact copies of rows 0-9
    (zero distances and distance ties between different ids) and one
    all-zero row (zero norm under cosine, ``-0.0`` under inner product).
    Re-record (only ever from a commit whose build is trusted) with
    ``np.savez_compressed(BUILD_FIXTURE, **_build_regression_outputs())``.
    """
    rng = np.random.default_rng(2024)
    data = rng.standard_normal((240, 12)).astype(np.float32)
    data[10:20] = data[:10]
    data[20] = 0.0
    out: dict[str, np.ndarray] = {}
    for metric in METRICS:
        for dtype in ("float32", "float16"):
            config = GraphBuildConfig(graph_degree=8, metric=metric, seed=11)
            knn = build_knn_graph(as_storage_dtype(data, dtype), 16, config)
            prefix = f"{metric}_{dtype}"
            out[f"{prefix}_knn_ids"] = knn.graph.neighbors
            out[f"{prefix}_knn_distances"] = knn.distances
            for reordering in ("rank", "distance"):
                index = CagraIndex.build(
                    data,
                    GraphBuildConfig(
                        graph_degree=8, metric=metric, seed=11, reordering=reordering
                    ),
                    dataset_dtype=dtype,
                )
                report = index.build_report
                out[f"{prefix}_{reordering}_neighbors"] = index.graph.neighbors
                out[f"{prefix}_{reordering}_counters"] = np.array(
                    [report.nn_descent_iterations, report.knn_distance_computations],
                    dtype=np.int64,
                )
    return out


def _build_outputs(prefix: str, data: np.ndarray, config: GraphBuildConfig) -> dict:
    """One build's k-NN graph, final graph and work counters, keyed by ``prefix``."""
    knn = build_knn_graph(data, config.resolved_intermediate_degree, config)
    index = CagraIndex.build(data, config)
    report = index.build_report
    return {
        f"{prefix}_knn_ids": knn.graph.neighbors,
        f"{prefix}_knn_distances": knn.distances,
        f"{prefix}_neighbors": index.graph.neighbors,
        f"{prefix}_counters": np.array(
            [
                report.nn_descent_iterations,
                report.knn_distance_computations,
                report.optimize.detour_checks,
            ],
            dtype=np.int64,
        ),
    }


def _tiny_build_regression_outputs() -> dict[str, np.ndarray]:
    """Builds small enough that a row can hold fewer than ``d_init``
    distinct ids mid-round, plus the two optimizer switches the 240-row
    fixture does not cover.

    N in {9, 13, 17, 24, 33} x graph degree {4, 8} (``d <= N - 1``) x
    seeds 0-3 on 4-dim Gaussian rows, then ``reordering="none"`` and
    ``add_reverse_edges=False`` on the 240-row data of
    :func:`_build_regression_outputs`.  Re-record (only ever from a commit
    whose build is trusted) with
    ``np.savez_compressed(TINY_BUILD_FIXTURE, **_tiny_build_regression_outputs())``.
    """
    out: dict[str, np.ndarray] = {}
    for n in (9, 13, 17, 24, 33):
        for degree in (4, 8):
            if degree > n - 1:
                continue
            for seed in range(4):
                data = np.random.default_rng(100 * n + seed).standard_normal((n, 4))
                config = GraphBuildConfig(graph_degree=degree, seed=seed)
                out.update(
                    _build_outputs(f"n{n}_d{degree}_s{seed}", data.astype(np.float32), config)
                )
    rng = np.random.default_rng(2024)
    data = rng.standard_normal((240, 12)).astype(np.float32)
    data[10:20] = data[:10]
    data[20] = 0.0
    for name, switch in (("none", {"reordering": "none"}), ("noreverse", {"add_reverse_edges": False})):
        config = GraphBuildConfig(graph_degree=8, seed=11, **switch)
        out.update(_build_outputs(f"n240_{name}", data, config))
    return out


class TestBuild:
    def test_build_reports_breakdown(self, small_index):
        report = small_index.build_report
        assert report.knn_seconds > 0
        assert report.optimize_seconds > 0
        assert report.total_seconds == pytest.approx(
            report.knn_seconds + report.optimize_seconds
        )
        assert report.knn_distance_computations > 0
        assert report.nn_descent_iterations >= 1

    def test_graph_degree_beyond_a_tiny_dataset_fails_before_nn_descent(self):
        """``d_init`` is clamped to ``N - 1``, so ``intermediate_degree``
        cannot rescue ``graph_degree >= N``: say so before any work."""
        data = np.random.default_rng(0).standard_normal((20, 4)).astype(np.float32)
        with mock.patch("repro.core.index.build_knn_graph") as knn:
            with pytest.raises(ValueError) as err:
                CagraIndex.build(data, GraphBuildConfig(graph_degree=32))
        knn.assert_not_called()
        assert str(err.value) == "graph_degree 32 needs at least 33 rows; the dataset has N=20"
        assert CagraIndex.build(data, GraphBuildConfig(graph_degree=18)).degree == 18

    def test_repr(self, small_index):
        text = repr(small_index)
        assert "CagraIndex" in text
        assert "degree=16" in text

    def test_properties(self, small_index, small_data):
        assert small_index.size == len(small_data)
        assert small_index.dim == small_data.shape[1]
        assert small_index.degree == 16

    def test_memory_bytes(self, small_index):
        expected = small_index.dataset.nbytes + small_index.graph.neighbors.nbytes
        assert small_index.memory_bytes() == expected

    def test_rejects_1d_dataset(self):
        with pytest.raises(ValueError):
            CagraIndex.build(np.zeros(10, dtype=np.float32))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            CagraIndex.build(np.zeros((1, 4), dtype=np.float32))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_dataset_names_the_row(self, small_data, poison):
        bad = small_data[:300].copy()
        bad[7, 3] = poison
        bad[9, 0] = poison
        with pytest.raises(ValueError, match="dataset row 7 contains NaN or inf"):
            CagraIndex.build(bad, GraphBuildConfig(graph_degree=8))

    def test_fp16_overflow_is_non_finite_as_stored(self, small_data):
        big = small_data[:300].copy()
        big[4, 0] = 1e5  # finite in float32, inf in float16
        CagraIndex.build(big, GraphBuildConfig(graph_degree=8))
        with pytest.raises(ValueError, match=r"dataset row 4 .* \(as float16\)"):
            with np.errstate(over="ignore"):
                CagraIndex.build(
                    big, GraphBuildConfig(graph_degree=8), dataset_dtype="float16"
                )

    def test_sharded_build_rejects_non_finite_too(self, small_data):
        from repro.core.sharding import ShardedCagraIndex

        bad = small_data[:300].copy()
        bad[11, 2] = np.nan
        with pytest.raises(ValueError, match="contains NaN or inf"):
            ShardedCagraIndex.build(bad, 2, GraphBuildConfig(graph_degree=8))

    def test_fp16_storage(self, small_data):
        index = CagraIndex.build(
            small_data[:300], GraphBuildConfig(graph_degree=8), dataset_dtype="float16"
        )
        assert index.dataset.dtype == np.float16
        result = index.search(small_data[:5], k=3, config=SearchConfig(itopk=16))
        assert np.isfinite(result.distances).all()

    def test_from_knn_result_reuses_initial_graph(self, small_data, small_knn):
        index = CagraIndex.from_knn_result(
            small_data, small_knn, GraphBuildConfig(graph_degree=16)
        )
        assert index.degree == 16
        assert index.build_report.knn_seconds == 0.0

    def test_mismatched_graph_rejected(self, small_data):
        graph = FixedDegreeGraph(np.zeros((10, 2), dtype=np.uint32))
        with pytest.raises(ValueError, match="rows"):
            CagraIndex(small_data, graph)

    def test_bad_metric_rejected(self, small_data, small_index):
        with pytest.raises(ValueError, match="metric"):
            CagraIndex(small_data, small_index.graph, metric="hamming")


class TestBuildRegression:
    """``CagraIndex.build`` stays bit for bit what it was before the
    cache-blocked construction kernels: ``fixtures/build_regression.npz``
    was recorded from commit fbd6118 (unblocked gather, lexsort merge,
    searchsorted detour counter) by :func:`_build_regression_outputs`.
    """

    def test_bitwise_against_recorded_builds(self):
        with np.load(BUILD_FIXTURE) as archive:
            expected = {key: archive[key] for key in archive.files}
        got = _build_regression_outputs()
        assert sorted(got) == sorted(expected)
        for key, value in got.items():
            assert value.dtype == expected[key].dtype, key
            np.testing.assert_array_equal(value, expected[key], err_msg=key)

    def test_bitwise_against_recorded_tiny_builds(self):
        """``fixtures/build_regression_tiny.npz`` was recorded by
        :func:`_tiny_build_regression_outputs` from the build that scored
        every candidate of a round and merged reverse edges node by node."""
        with np.load(TINY_BUILD_FIXTURE) as archive:
            expected = {key: archive[key] for key in archive.files}
        got = _tiny_build_regression_outputs()
        assert sorted(got) == sorted(expected)
        for key, value in got.items():
            assert value.dtype == expected[key].dtype, key
            np.testing.assert_array_equal(value, expected[key], err_msg=key)


class TestBuildMemory:
    @pytest.mark.parametrize("rows, bound", [(2000, 20), (8000, 10)])
    def test_traced_peak_is_a_fixed_multiple_of_the_index(self, rows, bound):
        """No build temporary scales with a round's whole candidate slab:
        numpy reports its buffers to ``tracemalloc``, and NN-descent expands
        and merges each round one ``_ROUND_BLOCK_BYTES`` row block at a
        time.  What is left of the peak is that block's merge temporaries
        (most of it at 2000 rows, ~13x the index) plus a few ``(N, d_init)``
        arrays: the lists, the reverse-sample permutation and its keys, and
        the optimizer's reverse-edge merge (~6x at 8000 rows).  The
        whole-N ``(N, 252)`` key slabs of one round put both at ~44x."""
        import tracemalloc

        rng = np.random.default_rng(5)
        data = rng.standard_normal((rows, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            index = CagraIndex.build(data, GraphBuildConfig(graph_degree=16, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * index.memory_bytes()


class TestSearchApi:
    def test_end_to_end_recall(self, small_index, small_queries, small_truth):
        result = small_index.search(small_queries, 10, SearchConfig(itopk=64))
        assert recall(result.indices, small_truth) > 0.9

    def test_default_config(self, small_index, small_queries):
        result = small_index.search(small_queries, k=5)
        assert result.indices.shape == (25, 5)


class TestSerialization:
    def test_roundtrip(self, small_index, small_queries, tmp_path):
        path = str(tmp_path / "index.npz")
        small_index.save(path)
        loaded = CagraIndex.load(path)
        assert loaded.size == small_index.size
        assert loaded.metric == small_index.metric
        np.testing.assert_array_equal(loaded.graph.neighbors, small_index.graph.neighbors)
        np.testing.assert_array_equal(loaded.dataset, small_index.dataset)

    def test_loaded_index_searches_identically(self, small_index, small_queries, tmp_path):
        path = str(tmp_path / "index.npz")
        small_index.save(path)
        loaded = CagraIndex.load(path)
        config = SearchConfig(itopk=32, seed=9)
        a = small_index.search(small_queries[:5], 10, config)
        b = loaded.search(small_queries[:5], 10, config)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_fp16_roundtrip(self, small_data, tmp_path):
        index = CagraIndex.build(
            small_data[:300], GraphBuildConfig(graph_degree=8), dataset_dtype="float16"
        )
        path = str(tmp_path / "half.npz")
        index.save(path)
        loaded = CagraIndex.load(path)
        assert loaded.dataset.dtype == np.float16

    def test_file_created(self, small_index, tmp_path):
        path = str(tmp_path / "out.npz")
        small_index.save(path)
        assert os.path.exists(path)
        assert os.path.getsize(path) > 0
