"""White-box tests of baseline construction internals."""

import numpy as np
import pytest

from repro.baselines.ganns import GannsIndex
from repro.baselines.ggnn import GgnnIndex
from repro.baselines.hnsw import HnswIndex
from repro.core.graph import occlusion_prune


class TestGgnnTwoHopSweep:
    def test_sweep_improves_knn_quality(self, tiny_data):
        from repro.core.nn_descent import brute_force_knn_graph

        index = GgnnIndex(tiny_data, degree=6, shard_size=40)
        rng = np.random.default_rng(0)
        # Start from a random graph; sweeps must pull it toward true kNN.
        neighbors = np.array(
            [rng.choice([j for j in range(len(tiny_data)) if j != i],
                        size=6, replace=False)
             for i in range(len(tiny_data))]
        )
        exact = brute_force_knn_graph(tiny_data, 6)

        def overlap(rows):
            return np.mean([
                len(np.intersect1d(rows[i], exact.graph.neighbors[i])) / 6
                for i in range(len(tiny_data))
            ])

        before = overlap(neighbors)
        out = neighbors.copy()
        for _ in range(3):
            out = index._two_hop_sweep(out, index.build_stats)
        assert overlap(out) > before

    def test_sweep_preserves_shape_and_range(self, tiny_data):
        index = GgnnIndex(tiny_data, degree=5, shard_size=40)
        rng = np.random.default_rng(1)
        neighbors = rng.integers(0, len(tiny_data), size=(len(tiny_data), 5))
        out = index._two_hop_sweep(neighbors, index.build_stats)
        assert out.shape == neighbors.shape
        assert out.min() >= 0 and out.max() < len(tiny_data)

    def test_sweep_block_invariance(self, tiny_data):
        index = GgnnIndex(tiny_data, degree=5, shard_size=40)
        rng = np.random.default_rng(2)
        neighbors = np.array(
            [rng.choice([j for j in range(len(tiny_data)) if j != i],
                        size=5, replace=False)
             for i in range(len(tiny_data))]
        )
        a = index._two_hop_sweep(neighbors, index.build_stats, block=16)
        b = index._two_hop_sweep(neighbors, index.build_stats, block=512)
        np.testing.assert_array_equal(a, b)


class TestGannsTrim:
    def test_trim_keeps_nearest_half_and_earliest(self, tiny_data):
        index = GannsIndex(tiny_data, degree=6)
        index.adjacency = [np.arange(1, 13, dtype=np.int64)]  # overgrown row
        index._trim_rows(index.build_stats)
        row = index.adjacency[0]
        assert len(row) == 6
        # Nearest half must be the true 3 nearest of the candidates.
        from repro.core.distances import distances_to_query

        d = distances_to_query(tiny_data, tiny_data[0], np.arange(1, 13))
        nearest3 = set(np.arange(1, 13)[np.argsort(d)[:3]].tolist())
        assert nearest3 <= set(row.tolist())

    def test_trim_leaves_short_rows_alone(self, tiny_data):
        index = GannsIndex(tiny_data, degree=6)
        index.adjacency = [np.array([1, 2, 3], dtype=np.int64)]
        index._trim_rows(index.build_stats)
        np.testing.assert_array_equal(index.adjacency[0], [1, 2, 3])


class TestHnswHeuristic:
    def test_heuristic_prefers_diverse_neighbors(self):
        """Algorithm 4: a candidate hidden behind a kept neighbor is
        dropped in favour of a more diverse (even farther) one."""
        # Points on a line: origin at 0; candidates at 1.0, 1.2 (behind
        # the first), and -2.0 (opposite side, farther).
        data = np.array(
            [[0.0], [1.0], [1.2], [-2.0]], dtype=np.float32
        )
        kept, _ = occlusion_prune(
            data, [0], np.array([[1, 2, 3]]), np.array([[1.0, 1.44, 4.0]]), 2, "rng"
        )
        ids = kept[0].tolist()
        assert 1 in ids
        assert 3 in ids  # diverse far point beats the occluded near one
        assert 2 not in ids

    def test_heuristic_falls_back_to_nearest(self):
        """If diversity filtering would underfill, HNSW's select pads
        nearest-first after the filter."""
        data = np.array([[0.0], [1.0], [1.1], [1.2]], dtype=np.float32)
        index = HnswIndex(data, m=3, ef_construction=4)
        chosen = index._select([0], np.array([[1, 2, 3]]), np.array([[1.0, 1.21, 1.44]]), 3)[0]
        assert len(chosen) == 3

    def test_level_distribution_geometric(self):
        rng_index = HnswIndex(np.zeros((2, 2), dtype=np.float32), m=16, seed=0)
        levels = [rng_index._random_level() for _ in range(20_000)]
        share_l0 = sum(1 for l in levels if l == 0) / len(levels)
        # P(level = 0) = 1 - 1/m = 0.9375 for m = 16.
        assert share_l0 == pytest.approx(1 - 1 / 16, abs=0.02)
