"""Unit tests for repro.core.nn_descent."""

import numpy as np
import pytest

from repro.core.config import GraphBuildConfig
from repro.core.nn_descent import (
    _merge_candidates,
    _reverse_samples,
    brute_force_knn_graph,
    build_knn_graph,
)
from tests.oracles.build import reverse_samples


def table_distance(table: dict[tuple[int, int], float], calls: list | None = None):
    """A pair-distance callback over ``{(row, id): distance}``, optionally
    recording every pair it is asked for."""

    def distance(rows, ids):
        pairs = list(zip(rows.tolist(), ids.tolist()))
        if calls is not None:
            calls.extend(pairs)
        return np.array([table[pair] for pair in pairs], dtype=np.float32)

    return distance


class TestMergeCandidates:
    def test_keeps_best(self):
        ids = np.array([[1, 2]])
        dists = np.array([[1.0, 2.0]])
        cand = np.array([[3]])
        table = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 0.5}
        new_ids, new_dists, entered = _merge_candidates(
            ids, dists, cand, 2, table_distance(table)
        )
        np.testing.assert_array_equal(new_ids, [[3, 1]])
        np.testing.assert_allclose(new_dists, [[0.5, 1.0]])
        np.testing.assert_array_equal(entered, [[True, False]])

    def test_duplicate_keeps_best_distance(self):
        """Each distinct fresh id is scored once, however often it is a
        candidate; an id already in the row keeps its row distance and is
        not scored again."""
        ids = np.array([[1, 2]])
        dists = np.array([[1.0, 2.0]])
        cand = np.array([[2, 3, 3, 2]])
        table = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 0.3}
        calls: list = []
        new_ids, new_dists, entered = _merge_candidates(
            ids, dists, cand, 2, table_distance(table, calls)
        )
        assert calls == [(0, 3)]
        np.testing.assert_array_equal(new_ids, [[3, 1]])
        np.testing.assert_allclose(new_dists, [[0.3, 1.0]])
        np.testing.assert_array_equal(entered, [[True, False]])

    def test_no_change_reports_nothing_entered(self):
        ids = np.array([[1, 2]])
        dists = np.array([[1.0, 2.0]])
        table = {(0, 1): 1.0, (0, 2): 2.0, (0, 9): 99.0}
        new_ids, _, entered = _merge_candidates(
            ids, dists, np.array([[9]]), 2, table_distance(table)
        )
        np.testing.assert_array_equal(new_ids, ids)
        assert not entered.any()

    def test_rows_stay_sorted(self):
        rng = np.random.default_rng(0)
        ids = rng.permutation(20)[:8][None, :]
        cand = rng.permutation(30)[20:28][None, :] + 100
        table = {(0, int(i)): float(d) for i, d in zip(range(200), rng.random(200))}
        dists = np.array([[table[0, int(i)] for i in ids[0]]])
        order = np.argsort(dists[0])
        ids, dists = ids[:, order], dists[:, order]
        _, new_dists, _ = _merge_candidates(ids, dists, cand, 8, table_distance(table))
        assert (np.diff(new_dists[0]) >= 0).all()


class TestReverseSamples:
    def test_fast_matches_reference_semantics(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 30, size=(30, 5))
        out = _reverse_samples(ids.astype(np.int64), 4, np.random.default_rng(2))
        # Every sampled reverse neighbor must actually point at the node.
        for node in range(30):
            for src in out[node]:
                if src != node:  # padding value
                    assert node in ids[src]
        np.testing.assert_array_equal(
            out, reverse_samples(ids.astype(np.int64), 4, np.random.default_rng(2))
        )

    def test_reference_variant_same_property(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 20, size=(20, 4))
        out = reverse_samples(ids.astype(np.int64), 3, np.random.default_rng(2))
        for node in range(20):
            for src in out[node]:
                if src != node:
                    assert node in ids[src]

    def test_shapes(self):
        ids = np.zeros((10, 3), dtype=np.int64)
        ids[:] = np.arange(3)
        out = _reverse_samples(ids, 5, np.random.default_rng(0))
        assert out.shape == (10, 5)


class TestBruteForceKnnGraph:
    def test_exact_against_manual(self, tiny_data):
        result = brute_force_knn_graph(tiny_data, 5)
        d = ((tiny_data[:, None, :].astype(np.float64) - tiny_data[None]) ** 2).sum(-1)
        np.fill_diagonal(d, np.inf)
        expected = np.argsort(d, axis=1)[:, :5]
        # Compare sets (ties may reorder).
        for i in range(len(tiny_data)):
            assert set(result.graph.neighbors[i].tolist()) == set(expected[i].tolist())

    def test_rows_sorted_by_distance(self, tiny_data):
        result = brute_force_knn_graph(tiny_data, 6)
        assert (np.diff(result.distances, axis=1) >= 0).all()

    def test_no_self_loops(self, tiny_data):
        result = brute_force_knn_graph(tiny_data, 5)
        assert not result.graph.has_self_loops()

    def test_k_clamped(self):
        data = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
        result = brute_force_knn_graph(data, 10)
        assert result.graph.degree == 4


class TestBuildKnnGraph:
    def test_high_accuracy_vs_exact(self, small_data, small_knn):
        exact = brute_force_knn_graph(small_data, 32)
        overlaps = [
            len(np.intersect1d(small_knn.graph.neighbors[i], exact.graph.neighbors[i]))
            / 32
            for i in range(0, len(small_data), 10)
        ]
        assert np.mean(overlaps) > 0.85

    def test_rows_sorted_by_distance(self, small_knn):
        assert (np.diff(small_knn.distances, axis=1) >= -1e-6).all()

    def test_distances_match_ids(self, small_data, small_knn):
        """The reported distance table must be consistent with the ids."""
        from repro.core.distances import distances_to_query

        for node in (0, 17, 311):
            ref = distances_to_query(small_data, small_data[node], small_knn.graph.neighbors[node])
            np.testing.assert_allclose(small_knn.distances[node], ref, rtol=1e-3, atol=1e-3)

    def test_no_self_loops(self, small_knn):
        assert not small_knn.graph.has_self_loops()

    def test_deterministic_given_seed(self):
        data = np.random.default_rng(3).standard_normal((200, 8)).astype(np.float32)
        a = build_knn_graph(data, 8, GraphBuildConfig(graph_degree=4, seed=11))
        b = build_knn_graph(data, 8, GraphBuildConfig(graph_degree=4, seed=11))
        np.testing.assert_array_equal(a.graph.neighbors, b.graph.neighbors)

    def test_different_seeds_differ(self):
        data = np.random.default_rng(3).standard_normal((200, 8)).astype(np.float32)
        a = build_knn_graph(data, 8, GraphBuildConfig(graph_degree=4, seed=11))
        b = build_knn_graph(data, 8, GraphBuildConfig(graph_degree=4, seed=12))
        assert not np.array_equal(a.graph.neighbors, b.graph.neighbors)

    def test_termination_before_cap(self, small_knn):
        config_cap = GraphBuildConfig().nn_descent_iterations
        assert small_knn.iterations <= config_cap

    def test_counts_distance_computations(self, small_knn, small_data):
        # At least the initialization distances must be counted.
        assert small_knn.distance_computations >= len(small_data) * 32

    def test_tiny_dataset(self):
        data = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)
        result = build_knn_graph(data, 8)
        assert result.graph.degree == 3  # clamped to n-1

    def test_rejects_single_vector(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_knn_graph(np.zeros((1, 4), dtype=np.float32), 2)

    def test_inner_product_metric(self):
        data = np.random.default_rng(0).standard_normal((150, 8)).astype(np.float32)
        result = build_knn_graph(
            data, 6, GraphBuildConfig(graph_degree=4, metric="inner_product")
        )
        exact = brute_force_knn_graph(data, 6, metric="inner_product")
        overlap = np.mean(
            [
                len(np.intersect1d(result.graph.neighbors[i], exact.graph.neighbors[i])) / 6
                for i in range(150)
            ]
        )
        assert overlap > 0.7


class TestReferenceNnDescent:
    """The textbook local-join NN-descent as an oracle for the vectorized
    variant."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.datasets.synthetic import clustered_gaussian

        return clustered_gaussian(300, 16, seed=3)

    def test_reference_reaches_high_quality(self, corpus):
        from repro.core.nn_descent_reference import build_knn_graph_reference

        exact = brute_force_knn_graph(corpus, 10)
        result = build_knn_graph_reference(corpus, 10, seed=1)
        overlap = np.mean([
            len(np.intersect1d(result.graph.neighbors[i], exact.graph.neighbors[i])) / 10
            for i in range(len(corpus))
        ])
        assert overlap > 0.9

    def test_vectorized_matches_reference_quality(self, corpus):
        """The NumPy restructuring must not cost meaningful graph quality
        relative to the literal algorithm."""
        from repro.core.nn_descent_reference import build_knn_graph_reference

        exact = brute_force_knn_graph(corpus, 10)

        def quality(neighbors):
            return np.mean([
                len(np.intersect1d(neighbors[i], exact.graph.neighbors[i])) / 10
                for i in range(len(corpus))
            ])

        reference = build_knn_graph_reference(corpus, 10, seed=1)
        fast = build_knn_graph(corpus, 10, GraphBuildConfig(graph_degree=4, seed=1))
        assert quality(fast.graph.neighbors) > quality(reference.graph.neighbors) - 0.1

    def test_reference_rows_sorted(self, corpus):
        from repro.core.nn_descent_reference import build_knn_graph_reference

        result = build_knn_graph_reference(corpus, 8, seed=2)
        assert (np.diff(result.distances, axis=1) >= -1e-6).all()
        assert not result.graph.has_self_loops()

    def test_reference_terminates_early(self, corpus):
        from repro.core.nn_descent_reference import build_knn_graph_reference

        result = build_knn_graph_reference(corpus, 8, max_iterations=30, seed=2)
        assert result.iterations < 30
