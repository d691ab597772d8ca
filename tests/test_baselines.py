"""Unit tests for repro.baselines — brute force, beam, HNSW, NSSG, GGNN, GANNS."""

import numpy as np
import pytest

from repro.baselines import (
    BeamCounters,
    GannsIndex,
    GgnnIndex,
    HnswIndex,
    NssgIndex,
    exact_search,
    nssg_search,
)
from repro.core.config import GraphBuildConfig
from repro.core.metrics import recall
from repro.core.nn_descent import brute_force_knn_graph, build_knn_graph
from tests.oracles.beam import beam_search


class TestExactSearch:
    def test_matches_manual(self, tiny_data):
        ids, dists = exact_search(tiny_data, tiny_data[:3], 5)
        d = ((tiny_data[:3, None].astype(np.float64) - tiny_data[None]) ** 2).sum(-1)
        for i in range(3):
            assert set(ids[i].tolist()) == set(np.argsort(d[i])[:5].tolist())

    def test_sorted_output(self, tiny_data):
        _, dists = exact_search(tiny_data, tiny_data[:5], 8)
        assert (np.diff(dists, axis=1) >= 0).all()

    def test_query_is_own_nearest(self, tiny_data):
        ids, dists = exact_search(tiny_data, tiny_data[7], 1)
        assert ids[0, 0] == 7
        assert dists[0, 0] == pytest.approx(0.0, abs=1e-3)

    def test_k_bounds(self, tiny_data):
        with pytest.raises(ValueError):
            exact_search(tiny_data, tiny_data[:1], 0)
        with pytest.raises(ValueError):
            exact_search(tiny_data, tiny_data[:1], len(tiny_data) + 1)

    def test_blocking_invariance(self, tiny_data):
        a, _ = exact_search(tiny_data, tiny_data[:50], 5, block=7)
        b, _ = exact_search(tiny_data, tiny_data[:50], 5, block=256)
        np.testing.assert_array_equal(a, b)

    def test_inner_product(self, tiny_data):
        ids, _ = exact_search(tiny_data, tiny_data[:3], 4, metric="inner_product")
        sims = tiny_data[:3].astype(np.float64) @ tiny_data.T.astype(np.float64)
        for i in range(3):
            assert set(ids[i].tolist()) == set(np.argsort(-sims[i])[:4].tolist())


class TestBeamSearch:
    def test_finds_true_neighbors_on_exact_graph(self, tiny_data):
        knn = brute_force_knn_graph(tiny_data, 10)
        truth, _ = exact_search(tiny_data, tiny_data[:5], 5)
        counters = BeamCounters()
        hits = []
        for i in range(5):
            ids, _ = beam_search(
                tiny_data, knn.graph.neighbors, tiny_data[i], 5, 32,
                np.arange(0, 120, 10), counters=counters,
            )
            hits.append(len(np.intersect1d(ids, truth[i])) / 5)
        assert np.mean(hits) > 0.9
        assert counters.queries == 5
        assert counters.distance_computations > 0

    def test_k_exceeding_beam_raises(self, tiny_data):
        knn = brute_force_knn_graph(tiny_data, 5)
        with pytest.raises(ValueError, match="exceeds"):
            beam_search(tiny_data, knn.graph.neighbors, tiny_data[0], 10, 5,
                        np.array([0]))

    def test_results_sorted(self, tiny_data):
        knn = brute_force_knn_graph(tiny_data, 8)
        _, dists = beam_search(tiny_data, knn.graph.neighbors, tiny_data[0], 5, 16,
                               np.array([3, 40, 80]))
        assert (np.diff(dists) >= 0).all()

    def test_unfilled_slots_never_count_as_hits(self, tiny_data):
        """On a two-component graph a search seeded in one component
        finds fewer than ``k`` nodes; the unfilled slots are
        ``(INDEX_MASK, inf)``, not node 0, so they score no recall even
        though node 0 is a true neighbour."""
        from repro.core.graph import INDEX_MASK

        # Component A = nodes 0..59 (a ring), component B = 60..119.
        ring = lambda lo: [[lo + (i + 1) % 60, lo + (i - 1) % 60] for i in range(60)]
        adjacency = np.array(ring(0) + ring(60))
        query = tiny_data[0]
        ids, dists = beam_search(
            tiny_data, adjacency, query, 80, 80, np.array([60]),
        )
        assert set(ids[:60].tolist()) == set(range(60, 120))
        assert (ids[60:] == INDEX_MASK).all() and np.isinf(dists[60:]).all()
        truth, _ = exact_search(tiny_data, query, 80)
        assert 0 in truth[0]
        reachable_hits = len(np.intersect1d(truth[0], np.arange(60, 120)))
        assert recall(ids[None], truth) == pytest.approx(reachable_hits / 80)

    def test_counters_merge(self):
        a = BeamCounters(distance_computations=3, hops=2, queries=1)
        b = BeamCounters(distance_computations=4, hops=5, queries=2)
        a.merge_from(b)
        assert (a.distance_computations, a.hops, a.queries) == (7, 7, 3)


class TestHnsw:
    @pytest.fixture(scope="class")
    def hnsw(self, small_data):
        return HnswIndex(small_data, m=12, ef_construction=60, seed=0).build()

    def test_recall(self, hnsw, small_queries, small_truth):
        ids, _, _ = hnsw.search(small_queries, 10, ef=64)
        assert recall(ids, small_truth) > 0.95

    def test_recall_improves_with_ef(self, hnsw, small_queries, small_truth):
        low, _, _ = hnsw.search(small_queries, 10, ef=10)
        high, _, _ = hnsw.search(small_queries, 10, ef=128)
        assert recall(high, small_truth) >= recall(low, small_truth)

    def test_hierarchy_exists(self, hnsw):
        assert hnsw.max_level >= 1
        # Layer population shrinks exponentially-ish going up.
        sizes = hnsw.build_stats.level_sizes
        assert sizes[0] > sizes[-1]

    def test_base_layer_has_everyone(self, hnsw, small_data):
        assert len(hnsw.layers[0]) == len(small_data)

    def test_degree_bounds(self, hnsw):
        for node, neighbors in hnsw.layers[0].items():
            assert len(neighbors) <= hnsw.m0
        if hnsw.max_level >= 1:
            for node, neighbors in hnsw.layers[1].items():
                assert len(neighbors) <= hnsw.m0

    def test_search_before_build_raises(self, small_data):
        fresh = HnswIndex(small_data[:50], m=4)
        with pytest.raises(RuntimeError):
            fresh.search(small_data[:1], 1)

    def test_counters_populate(self, hnsw, small_queries):
        _, _, counters = hnsw.search(small_queries[:5], 5, ef=32)
        assert counters.queries == 5
        assert counters.distance_computations > 0
        assert counters.hops > 0

    def test_build_stats(self, hnsw):
        assert hnsw.build_stats.distance_computations > 0

    def test_k_above_index_size_pads_with_the_sentinel(self, small_data):
        from repro.core.graph import INDEX_MASK

        tiny = HnswIndex(small_data[:6], m=2, ef_construction=4, seed=0).build()
        ids, dists, _ = tiny.search(small_data[:3], 8, ef=8)
        assert (np.sort(ids[:, :6], axis=1) == np.arange(6)).all()
        assert (ids[:, 6:] == INDEX_MASK).all() and np.isinf(dists[:, 6:]).all()

    def test_bad_m_rejected(self, small_data):
        with pytest.raises(ValueError):
            HnswIndex(small_data, m=1)

    def test_mean_base_degree(self, hnsw):
        assert 1 <= hnsw.base_degree_mean <= hnsw.m0


class TestNssg:
    @pytest.fixture(scope="class")
    def nssg(self, small_data, small_knn):
        return NssgIndex(small_data, small_knn, degree_bound=24, pool_size=64, seed=0).build()

    def test_recall(self, nssg, small_queries, small_truth):
        ids, _, _ = nssg.search(small_queries, 10, beam_width=64, num_seeds=16)
        assert recall(ids, small_truth) > 0.85

    def test_degree_bound_respected(self, nssg):
        for row in nssg.adjacency:
            assert len(row) <= 24

    def test_angular_spread(self, nssg, small_data):
        """Kept edges at a node must respect the 60-degree criterion
        among the first few (pre-reverse-merge edges may relax it)."""
        import math
        node = 11
        kept = nssg.adjacency[node][:4]
        origin = small_data[node].astype(np.float64)
        dirs = []
        for other in kept:
            v = small_data[int(other)].astype(np.float64) - origin
            n = np.linalg.norm(v)
            if n > 0:
                dirs.append(v / n)
        # At least the forward-pruned prefix should not be collinear.
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                assert float(dirs[i] @ dirs[j]) < 0.98

    def test_search_before_build_raises(self, small_data, small_knn):
        fresh = NssgIndex(small_data, small_knn)
        with pytest.raises(RuntimeError):
            fresh.search(small_data[:1], 1)

    def test_nssg_search_on_cagra_graph(self, small_index, small_queries, small_truth):
        """Fig. 12: the NSSG searcher must run on a CAGRA graph directly."""
        ids, _, counters = nssg_search(
            small_index.dataset, small_index.graph, small_queries, 10,
            beam_width=64, num_seeds=16,
        )
        assert recall(ids, small_truth) > 0.85
        assert counters.queries == len(small_queries)

    def test_build_stats(self, nssg):
        assert nssg.build_stats.distance_computations > 0
        assert nssg.build_stats.pool_sizes_mean > 0


class TestGgnn:
    @pytest.fixture(scope="class")
    def ggnn(self, small_data):
        return GgnnIndex(small_data, degree=16, shard_size=256, seed=0).build()

    def test_recall(self, ggnn, small_queries, small_truth):
        ids, _, _ = ggnn.search(small_queries, 10, beam_width=64)
        assert recall(ids, small_truth) > 0.85

    def test_fixed_degree(self, ggnn):
        assert ggnn.graph.degree == 16

    def test_shards_recorded(self, ggnn):
        assert ggnn.build_stats.num_shards == int(np.ceil(1200 / 256))

    def test_coarse_layer_exists(self, ggnn):
        assert len(ggnn.coarse_ids) >= 32

    def test_search_before_build_raises(self, small_data):
        with pytest.raises(RuntimeError):
            GgnnIndex(small_data).search(small_data[:1], 1)

    def test_no_self_loops(self, ggnn):
        assert not ggnn.graph.has_self_loops()

    def test_trailing_shard_too_small_joins_the_one_before(self):
        """Five rows in shards of four leave a one-node shard with no
        exact neighbours; it joins the first shard instead of failing the
        build (it used to pad an empty row)."""
        data = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
        ggnn = GgnnIndex(data, degree=2, shard_size=4).build()
        assert ggnn.build_stats.num_shards == 1
        rows = ggnn.graph.neighbors
        assert not ggnn.graph.has_self_loops()
        assert all(len(set(row.tolist())) == 2 for row in rows)


class TestGanns:
    @pytest.fixture(scope="class")
    def ganns(self, small_data):
        return GannsIndex(small_data, degree=16, seed=0).build()

    def test_recall(self, ganns, small_queries, small_truth):
        ids, _, _ = ganns.search(small_queries, 10, beam_width=64, num_seeds=8)
        assert recall(ids, small_truth) > 0.8

    def test_degree_cap(self, ganns):
        for row in ganns.adjacency:
            assert len(row) <= 16

    def test_batched_construction(self, ganns):
        assert ganns.build_stats.num_batches >= 2

    def test_average_degree(self, ganns):
        assert 4 <= ganns.average_degree <= 16

    def test_search_before_build_raises(self, small_data):
        with pytest.raises(RuntimeError):
            GannsIndex(small_data).search(small_data[:1], 1)


class TestBaselineDeterminism:
    def test_ggnn_search_deterministic(self, small_data, small_queries):
        g = GgnnIndex(small_data[:400], degree=8, shard_size=150, seed=0).build()
        a, _, _ = g.search(small_queries[:5], 5, beam_width=32)
        b, _, _ = g.search(small_queries[:5], 5, beam_width=32)
        np.testing.assert_array_equal(a, b)

    def test_ganns_search_deterministic(self, small_data, small_queries):
        g = GannsIndex(small_data[:400], degree=8, seed=0).build()
        a, _, _ = g.search(small_queries[:5], 5, beam_width=32, seed=3)
        b, _, _ = g.search(small_queries[:5], 5, beam_width=32, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_hnsw_build_deterministic(self, small_data):
        a = HnswIndex(small_data[:200], m=6, ef_construction=30, seed=4).build()
        b = HnswIndex(small_data[:200], m=6, ef_construction=30, seed=4).build()
        assert a.max_level == b.max_level
        for node in (0, 50, 150):
            np.testing.assert_array_equal(a.layers[0][node], b.layers[0][node])


def _in_degrees(rows) -> np.ndarray:
    """In-edges from other nodes, one per (source, target) pair."""
    degrees = np.zeros(len(rows), dtype=np.int64)
    for source, row in enumerate(rows):
        for target in {int(t) for t in row} - {source}:
            degrees[target] += 1
    return degrees


class TestReachabilityRepairs:
    """Every baseline graph gives each node except the entry point an
    in-edge, and a repair survives the later ones and the degree cap."""

    def test_repair_never_evicts_a_last_in_edge(self):
        from repro.core.graph import link_orphans

        # Node 3 is listed only by row 0's last slot, node 4 by nobody;
        # writing 4 over row 0's last slot would orphan 3.
        rows = [[1, 3], [2, 0], [0, 1], [0, 1], [0, 1]]
        assert link_orphans(rows, 2) == 1
        assert rows[0] == [4, 3]
        assert (_in_degrees(rows) >= 1).all()

    def test_reverse_links_never_evict_a_last_in_edge(self):
        from repro.core.graph import link_orphans

        # Row 0's last slot holds node 3's only in-edge, so the reverse
        # link 0 -> 4 takes the slot before it; a link already present
        # (1 -> 0) is skipped.  ``extend`` plants its links this way.
        rows = [[1, 3], [0, 2], [0, 1], [0, 1], [0, 1]]
        assert link_orphans(rows, 2, links=[(0, 4), (1, 0)]) == 1
        assert rows[0] == [4, 3]
        assert (_in_degrees(rows) >= 1).all()

    def test_repair_appends_below_the_cap_and_skips_the_entry(self):
        from repro.core.graph import link_orphans

        rows = [[1], [2], [1], [0, 1]]
        assert link_orphans(rows, 3, entry=3) == 0
        rows = [[1], [2], [1], [0, 1]]
        assert link_orphans(rows, 3) == 1
        assert list(rows[0]) == [1, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_nssg_patches_survive_the_degree_bound(self, seed):
        data = np.random.default_rng(seed).standard_normal((400, 16)).astype(np.float32)
        knn = build_knn_graph(data, 8, GraphBuildConfig(graph_degree=4, seed=seed))
        index = NssgIndex(data, knn, degree_bound=4, pool_size=12, seed=seed).build()
        assert all(len(row) <= 4 for row in index.adjacency)
        assert (_in_degrees(index.adjacency) >= 1).all()
        assert index.build_stats.patched_nodes > 0

    @pytest.mark.parametrize("dataset", ["deep-1m", "glove-200"])
    def test_ganns_every_node_but_the_entry_has_an_in_edge(self, dataset):
        from repro.datasets import load_dataset

        bundle = load_dataset(dataset, scale=600, num_queries=1)
        index = GannsIndex(bundle.data, degree=32, metric=bundle.spec.metric).build()
        degrees = _in_degrees(index.adjacency)
        degrees[index.entry_point] = 1
        assert (degrees >= 1).all()
        assert all(len(row) <= 32 for row in index.adjacency)

    def test_ggnn_every_node_has_an_in_edge(self, small_data):
        index = GgnnIndex(small_data[:500], degree=8, shard_size=150, seed=0).build()
        assert (_in_degrees(index.graph.neighbors) >= 1).all()
