"""Unit tests for repro.core.optimize — the heart of the CAGRA paper."""

import numpy as np
import pytest

from repro.core.config import GraphBuildConfig
from repro.core.graph import FixedDegreeGraph
from repro.core.metrics import average_two_hop_count, strong_connected_components
from repro.core.nn_descent import KnnGraphResult, brute_force_knn_graph
from repro.core.optimize import (
    count_detourable_routes,
    merge_reverse_edges,
    optimize_graph,
    prune_to_degree,
    reorder_edges,
)


def reference_detour_counts(neighbors: np.ndarray, distances=None) -> np.ndarray:
    """O(N * d^2) literal implementation of Fig. 2 / Eq. 3 for testing.

    Tie rule: when X's list repeats a neighbour id, every detour through
    it is charged to its *lowest* rank (first occurrence) — the rule the
    product and the property oracle in ``test_properties.py`` follow.
    """
    n, d = neighbors.shape
    counts = np.zeros((n, d), dtype=np.int64)
    for x in range(n):
        position: dict[int, int] = {}
        for r, y in enumerate(neighbors[x]):
            position.setdefault(int(y), r)
        for a in range(d):  # rank of X -> Z
            z = int(neighbors[x, a])
            for j in range(d):  # rank of Z -> Y in Z's list
                y = int(neighbors[z, j])
                r_y = position.get(y)
                if r_y is None:
                    continue
                if distances is None:
                    if max(a, j) < r_y:
                        counts[x, r_y] += 1
                else:
                    w_xz = distances[x, a]
                    w_zy = distances[z, j]
                    w_xy = distances[x, r_y]
                    if max(w_xz, w_zy) < w_xy:
                        counts[x, r_y] += 1
    return counts


class TestDetourCounts:
    def test_matches_reference_rank_based(self):
        rng = np.random.default_rng(0)
        n, d = 60, 6
        neighbors = np.array(
            [rng.choice([j for j in range(n) if j != i], size=d, replace=False)
             for i in range(n)]
        )
        fast = count_detourable_routes(neighbors, block=16)
        slow = reference_detour_counts(neighbors)
        np.testing.assert_array_equal(fast, slow)

    def test_matches_reference_distance_based(self):
        rng = np.random.default_rng(1)
        n, d = 50, 5
        neighbors = np.array(
            [rng.choice([j for j in range(n) if j != i], size=d, replace=False)
             for i in range(n)]
        )
        distances = np.sort(rng.random((n, d)), axis=1).astype(np.float32)
        fast = count_detourable_routes(neighbors, distances=distances, block=13)
        slow = reference_detour_counts(neighbors, distances)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("use_distances", [False, True])
    def test_repeated_neighbour_id_counts_at_lowest_rank(self, use_distances):
        rng = np.random.default_rng(4)
        n, d = 40, 6
        neighbors = np.array(
            [rng.choice([j for j in range(n) if j != i], size=d, replace=False)
             for i in range(n)]
        )
        neighbors[:, 4] = neighbors[:, 1]  # every list repeats one id
        distances = None
        if use_distances:
            distances = np.sort(rng.random((n, d)), axis=1).astype(np.float32)
        fast = count_detourable_routes(neighbors, distances=distances, block=16)
        slow = reference_detour_counts(neighbors, distances)
        np.testing.assert_array_equal(fast, slow)
        assert (fast[:, 4] == 0).all()  # the repeat's own slot is never charged

    def test_first_edge_never_detourable_rank_based(self):
        """Rank 0 edges cannot be detoured: max(a, j) < 0 is impossible."""
        rng = np.random.default_rng(2)
        neighbors = np.array(
            [rng.choice([j for j in range(40) if j != i], size=5, replace=False)
             for i in range(40)]
        )
        counts = count_detourable_routes(neighbors)
        assert (counts[:, 0] == 0).all()

    def test_block_size_invariance(self, small_knn):
        a = count_detourable_routes(small_knn.graph.neighbors, block=64)
        b = count_detourable_routes(small_knn.graph.neighbors, block=500)
        np.testing.assert_array_equal(a, b)

    def test_paper_figure2_example(self):
        """The worked example of Fig. 2: node X with neighbors A..E.

        Construct a tiny instance where a far-by-distance edge survives
        because it has no detourable routes.
        """
        # X=0; A=1, B=2, C=3, D=4, E=5 at ranks 0..4.
        # Edges among neighbors create detours for C (rank 2) and D (rank 3).
        neighbors = np.array([
            [1, 2, 3, 4, 5],   # X
            [3, 0, 2, 4, 5],   # A -> C at rank 0
            [4, 0, 1, 3, 5],   # B -> D at rank 0
            [1, 0, 2, 4, 5],   # C
            [2, 0, 1, 3, 5],   # D
            [0, 1, 2, 3, 4],   # E: no one routes to E cheaply
        ])
        counts = count_detourable_routes(neighbors)
        x_counts = counts[0]
        # C (rank 2) detourable via A (ranks 0,0); D (rank 3) via B (1,0).
        assert x_counts[2] >= 1
        assert x_counts[3] >= 1
        # E (rank 4) has no detour: stays at 0 and outranks C/D after reorder.
        assert x_counts[4] == 0
        reordered = reorder_edges(neighbors, counts)
        kept = prune_to_degree(reordered, 3)[0]
        assert 5 in kept  # E survives despite being the farthest


class TestReorderPrune:
    def test_reorder_is_stable_on_ties(self):
        neighbors = np.array([[10, 11, 12, 13]])
        counts = np.array([[0, 0, 0, 0]])
        np.testing.assert_array_equal(reorder_edges(neighbors, counts), neighbors)

    def test_reorder_ascending_by_count(self):
        neighbors = np.array([[10, 11, 12]])
        counts = np.array([[2, 0, 1]])
        np.testing.assert_array_equal(reorder_edges(neighbors, counts), [[11, 12, 10]])

    def test_prune_keeps_prefix(self):
        neighbors = np.array([[5, 6, 7, 8]])
        np.testing.assert_array_equal(prune_to_degree(neighbors, 2), [[5, 6]])

    def test_prune_too_large_raises(self):
        with pytest.raises(ValueError, match="prune"):
            prune_to_degree(np.zeros((3, 4), dtype=np.uint32), 5)


class TestMergeReverseEdges:
    def test_degree_preserved(self, small_knn):
        pruned = FixedDegreeGraph(prune_to_degree(small_knn.graph.neighbors, 8))
        merged = merge_reverse_edges(pruned)
        assert merged.degree == 8
        assert merged.num_nodes == pruned.num_nodes

    def test_no_duplicates_per_row(self, small_knn):
        pruned = FixedDegreeGraph(prune_to_degree(small_knn.graph.neighbors, 8))
        merged = merge_reverse_edges(pruned)
        for row in merged.neighbors[:100]:
            assert len(set(row.tolist())) == len(row)

    def test_no_self_loops(self, small_knn):
        pruned = FixedDegreeGraph(prune_to_degree(small_knn.graph.neighbors, 8))
        merged = merge_reverse_edges(pruned)
        assert not merged.has_self_loops()

    def test_interleaving_takes_from_both(self):
        """With reverse edges available, about half the row must be reverse."""
        # Directed star-ish: many nodes point at node 0, node 0 points away.
        rng = np.random.default_rng(0)
        n, d = 40, 4
        rows = np.array(
            [rng.choice([j for j in range(n) if j != i], size=d, replace=False)
             for i in range(n)]
        )
        pruned = FixedDegreeGraph(rows)
        merged = merge_reverse_edges(pruned)
        reverse_available = pruned.reversed_edge_lists()
        hits = 0
        total = 0
        for node in range(n):
            rev = set(int(s) for s in reverse_available[node][:d])
            fwd = set(int(x) for x in rows[node])
            only_rev = rev - fwd
            if not only_rev:
                continue
            total += 1
            if only_rev & set(int(x) for x in merged.neighbors[node]):
                hits += 1
        assert total > 0
        assert hits / total > 0.5

    def test_reduces_strong_cc(self):
        """Reverse edges must repair one-way reachability (paper Fig. 3)."""
        # A directed chain graph: many SCCs before, fewer after.
        n, d = 30, 2
        rows = np.array([[(i + 1) % n, (i + 2) % n] for i in range(n)], dtype=np.uint32)
        # Break the cycle: last two nodes point back into the middle.
        rows[n - 1] = [n - 2, n - 3]
        rows[n - 2] = [n - 3, n - 4]
        pruned = FixedDegreeGraph(rows)
        before = strong_connected_components(pruned)
        merged = merge_reverse_edges(pruned)
        after = strong_connected_components(merged)
        assert after <= before


class TestOptimizeGraph:
    def test_output_degree(self, small_knn):
        config = GraphBuildConfig(graph_degree=16)
        graph, report = optimize_graph(small_knn, config)
        assert graph.degree == 16
        assert report.reordering == "rank"

    def test_rank_based_needs_no_distances(self, small_knn):
        config = GraphBuildConfig(graph_degree=16, reordering="rank")
        _, report = optimize_graph(small_knn, config)
        assert report.distance_table_bytes == 0
        assert report.distance_computations == 0

    def test_distance_based_uses_table(self, small_knn):
        config = GraphBuildConfig(graph_degree=16, reordering="distance")
        _, report = optimize_graph(small_knn, config)
        assert report.distance_table_bytes == small_knn.distances.nbytes

    def test_degree_exceeding_initial_raises(self, small_knn):
        config = GraphBuildConfig(graph_degree=64)
        with pytest.raises(ValueError, match="exceeds"):
            optimize_graph(small_knn, config)

    def test_full_optimization_improves_two_hop(self, small_data, small_knn):
        """Fig. 3: full CAGRA optimization beats plain pruned k-NN."""
        d = 16
        plain = FixedDegreeGraph(prune_to_degree(small_knn.graph.neighbors, d))
        optimized, _ = optimize_graph(small_knn, GraphBuildConfig(graph_degree=d))
        plain_2hop = average_two_hop_count(plain, sample=300, seed=1)
        opt_2hop = average_two_hop_count(optimized, sample=300, seed=1)
        assert opt_2hop > plain_2hop

    def test_reverse_edges_reduce_strong_cc(self, small_knn):
        """Fig. 3: reverse edge addition drives strong CC down."""
        d = 16
        no_reverse, _ = optimize_graph(
            small_knn, GraphBuildConfig(graph_degree=d, add_reverse_edges=False)
        )
        full, _ = optimize_graph(small_knn, GraphBuildConfig(graph_degree=d))
        assert strong_connected_components(full) <= strong_connected_components(
            no_reverse
        )

    def test_reordering_none_prunes_by_distance_rank(self, small_knn):
        d = 16
        graph, _ = optimize_graph(
            small_knn,
            GraphBuildConfig(graph_degree=d, reordering="none", add_reverse_edges=False),
        )
        np.testing.assert_array_equal(
            graph.neighbors, small_knn.graph.neighbors[:, :d]
        )

    def test_rank_vs_distance_similar_two_hop(self, small_knn):
        """Q-A3: rank-based optimization is compatible with distance-based."""
        rank_graph, _ = optimize_graph(small_knn, GraphBuildConfig(graph_degree=16))
        dist_graph, _ = optimize_graph(
            small_knn, GraphBuildConfig(graph_degree=16, reordering="distance")
        )
        rank_2hop = average_two_hop_count(rank_graph, sample=300, seed=2)
        dist_2hop = average_two_hop_count(dist_graph, sample=300, seed=2)
        assert rank_2hop == pytest.approx(dist_2hop, rel=0.15)


class TestInterleaveOrder:
    def test_alternating_positions_when_reverse_plentiful(self):
        """Sec. III-B2: forward and reverse edges interleave — even slots
        from the pruned graph, odd slots from the reversed graph — when
        both sides have enough distinct children."""
        # Ring-ish pruned graph where every node has abundant reverse
        # edges distinct from its forward ones.
        n, d = 12, 4
        rows = np.array(
            [[(i + 1) % n, (i + 2) % n, (i + 3) % n, (i + 4) % n] for i in range(n)],
            dtype=np.uint32,
        )
        pruned = FixedDegreeGraph(rows)
        merged = merge_reverse_edges(pruned)
        reverse_lists = pruned.reversed_edge_lists()
        for node in range(n):
            fwd = [int(x) for x in rows[node]]
            rev = [int(x) for x in reverse_lists[node] if int(x) not in fwd]
            if len(rev) < d // 2:
                continue
            row = [int(x) for x in merged.neighbors[node]]
            # Even slots come from the forward list, in forward order.
            assert row[0] == fwd[0]
            assert row[2] in fwd
            # Odd slots come from the reverse list.
            assert row[1] in rev
            assert row[3] in rev

    def test_compensation_from_forward_when_reverse_short(self):
        """Nodes with no incoming edges fill their row from the pruned
        graph alone."""
        # Star: all nodes point at 0 and 1; node 5 gets no reverse edges
        # from anyone... construct: nodes 0..5, rows all [0, 1] except
        # self-avoidance handling.
        rows = np.array(
            [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1], [0, 1]], dtype=np.uint32
        )
        pruned = FixedDegreeGraph(rows)
        merged = merge_reverse_edges(pruned)
        # Node 5 has no incoming edges: its merged row is its forward row.
        np.testing.assert_array_equal(sorted(merged.neighbors[5].tolist()), [0, 1])

    def test_both_lists_dry_on_a_reverse_slot_terminates(self):
        """Node 1 lists only {2, 0} and only nodes 0, 2 and 5 list it: at a
        reverse slot both of its lists run dry while the row is still short.
        The merge used to spin there forever; it now falls through to the
        random fill and every row still ends up with ``d`` distinct ids."""
        rows = np.array(
            [[5, 4, 3, 1], [2, 0, 0, 0], [1, 5, 4, 6], [3, 4, 6, 5],
             [4, 3, 3, 6], [1, 5, 4, 0], [2, 6, 3, 0]],
            dtype=np.uint32,
        )
        merged = merge_reverse_edges(
            FixedDegreeGraph(rows), rng=np.random.default_rng(1)
        ).neighbors
        assert merged.shape == (7, 4)
        for node, row in enumerate(merged.tolist()):
            assert len(set(row)) == 4 and node not in row
