"""Property-based tests (hypothesis) for the core data structures.

Invariants checked:

* hash tables behave like Python sets (insert-once semantics);
* bitonic sort equals NumPy sort for any key array;
* merge_topm equals a reference top-M selection for any inputs;
* detour-route counting equals the literal O(d²) reference on random
  graphs;
* NN-descent merge keeps rows sorted and deduplicated;
* graph reverse lists invert the edge relation exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.graph import FixedDegreeGraph, INDEX_MASK
from repro.core.hashtable import StandardHashTable
from repro.core.nn_descent import _merge_candidates
from repro.core.optimize import count_detourable_routes
from repro.core.topm import bitonic_sort, merge_topm

MAX_EXAMPLES = 40


@st.composite
def key_batches(draw):
    size = draw(st.integers(1, 60))
    return draw(
        arrays(np.uint32, size, elements=st.integers(0, 2**31 - 1))
    )


class TestHashTableProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(keys=key_batches())
    def test_behaves_like_set(self, keys):
        table = StandardHashTable(10)
        reference: set[int] = set()
        fresh = table.insert_unique(keys)
        for key, was_fresh in zip(keys.tolist(), fresh.tolist()):
            assert was_fresh == (key not in reference)
            reference.add(key)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(keys=key_batches())
    def test_contains_after_insert(self, keys):
        table = StandardHashTable(10)
        table.insert_unique(keys)
        for key in keys.tolist():
            assert table.contains(int(key))


class TestBitonicSortProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        keys=arrays(
            np.float64,
            st.integers(1, 80),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
            ),
        )
    )
    def test_matches_numpy_sort(self, keys):
        values = np.arange(len(keys), dtype=np.uint32)
        sorted_keys, sorted_values = bitonic_sort(keys, values)
        np.testing.assert_allclose(sorted_keys, np.sort(keys))
        np.testing.assert_allclose(keys[sorted_values], sorted_keys)


class TestMergeTopmProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        topm=st.integers(1, 32),
        n_top=st.integers(0, 32),
        n_cand=st.integers(0, 64),
        seed=st.integers(0, 10_000),
    )
    def test_matches_reference_selection(self, topm, n_top, n_cand, seed):
        rng = np.random.default_rng(seed)
        top_ids = rng.choice(1000, size=n_top, replace=False).astype(np.uint32)
        top_d = np.sort(rng.random(n_top))
        cand_ids = rng.choice(np.arange(1000, 3000), size=n_cand, replace=False).astype(
            np.uint32
        )
        cand_d = rng.random(n_cand)
        ids, dists = merge_topm(top_ids, top_d, cand_ids, cand_d, topm)
        assert len(ids) == topm
        # Finite part equals the best of the union.
        union = np.sort(np.concatenate([top_d, cand_d]))[:topm]
        finite = dists[np.isfinite(dists)]
        np.testing.assert_allclose(finite, union[: len(finite)])
        # Sorted ascending, dummies (if any) at the end.
        assert (np.diff(dists[np.isfinite(dists)]) >= 0).all()

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 16))
    def test_no_duplicate_ids(self, seed, m):
        rng = np.random.default_rng(seed)
        pool = rng.choice(50, size=20, replace=True).astype(np.uint32)
        ids, _ = merge_topm(pool[:8], rng.random(8), pool[8:], rng.random(12), m)
        real = ids[ids != INDEX_MASK]
        bare = real & INDEX_MASK
        assert len(np.unique(bare)) == len(bare)


def _random_graph(rng, n, d):
    return np.array(
        [rng.choice([j for j in range(n) if j != i], size=d, replace=False)
         for i in range(n)]
    )


class TestDetourCountProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(10, 40), d=st.integers(2, 6))
    def test_matches_literal_reference(self, seed, n, d):
        from tests.test_optimize import reference_detour_counts

        rng = np.random.default_rng(seed)
        d = min(d, n - 1)
        neighbors = _random_graph(rng, n, d)
        fast = count_detourable_routes(neighbors, block=7)
        slow = reference_detour_counts(neighbors)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_counts_bounded(self, seed):
        rng = np.random.default_rng(seed)
        neighbors = _random_graph(rng, 30, 5)
        counts = count_detourable_routes(neighbors)
        # An edge at rank r has at most r routes through lower-rank hops.
        bound = np.arange(5)[None, :]
        assert (counts <= bound).all() or (counts <= 5 * 5).all()


class TestNnDescentMergeProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 12))
    def test_rows_sorted_and_unique(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = 3
        ids = rng.integers(0, 100, size=(rows, k)).astype(np.int64)
        dists = np.sort(rng.random((rows, k)), axis=1)
        cand = rng.integers(0, 100, size=(rows, k)).astype(np.int64)
        cand_d = rng.random((rows, k))
        new_ids, new_dists, _ = _merge_candidates(ids, dists, cand, cand_d, k)
        for row_ids, row_dists in zip(new_ids, new_dists):
            finite = np.isfinite(row_dists)
            assert (np.diff(row_dists[finite]) >= 0).all()
            assert len(np.unique(row_ids[finite])) == finite.sum()


class TestBatchMergeProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 4),
        m=st.integers(1, 12),
        n_cand=st.integers(0, 20),
    )
    def test_vectorized_merge_matches_scalar(self, seed, rows, m, n_cand):
        """``_merge_rows_reference`` *is* row-parallel ``merge_topm``:
        exact ids (dummies and inf-distance real ids included), parent
        flags, distances, and position tie-breaks."""
        from repro.core.graph import INDEX_MASK, PARENT_FLAG
        from repro.core.topm import merge_topm
        from repro.core.traversal import _merge_rows_reference

        rng = np.random.default_rng(seed)
        topm_ids = np.stack(
            [rng.choice(200, size=m, replace=False) for _ in range(rows)]
        ).astype(np.uint32)
        topm_ids[rng.random((rows, m)) < 0.3] |= PARENT_FLAG
        # Coarse distances force exact ties; infs exercise the "real id
        # with an infinite distance survives" rule.
        topm_d = np.sort(rng.integers(0, 6, (rows, m)).astype(np.float64), axis=1)
        topm_d[:, m - m // 3 :] = np.inf
        topm_ids[:, m - m // 4 :] = INDEX_MASK
        cand_ids = rng.choice(200, size=(rows, n_cand), replace=True).astype(np.uint32)
        cand_d = rng.integers(0, 6, (rows, n_cand)).astype(np.float64)
        cand_d[rng.random((rows, n_cand)) < 0.3] = np.inf
        got_ids, got_d = _merge_rows_reference(topm_ids, topm_d, cand_ids, cand_d, m)
        for r in range(rows):
            ref_ids, ref_d = merge_topm(
                topm_ids[r], topm_d[r], cand_ids[r], cand_d[r], m
            )
            np.testing.assert_array_equal(got_d[r], ref_d)
            np.testing.assert_array_equal(got_ids[r], ref_ids)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 4),
        m=st.integers(1, 12),
        n_cand=st.integers(0, 20),
    )
    def test_sort_only_merge_under_its_precondition(self, seed, rows, m, n_cand):
        """The dense backend's merge, given what an exact visited table
        guarantees (finite entries carry distinct bare ids per row): the
        best ``m`` finite entries ordered by (distance, bare id), flags
        kept, and every inf slot a dummy."""
        from repro.core.graph import INDEX_MASK, PARENT_FLAG
        from repro.core.traversal import _merge_rows

        rng = np.random.default_rng(seed)
        total = m + n_cand
        ids = np.stack(
            [rng.choice(200, size=total, replace=False) for _ in range(rows)]
        ).astype(np.uint32)
        dists = rng.integers(0, 6, (rows, total)).astype(np.float64)  # ties
        # Stale / non-first-visit lanes: arbitrary (even repeated) ids, +inf.
        stale = rng.random((rows, total)) < 0.3
        dists[stale] = np.inf
        ids[stale] = rng.integers(0, 200, int(stale.sum()))
        ids[:, :m] |= np.where(rng.random((rows, m)) < 0.3, PARENT_FLAG, 0).astype(
            np.uint32
        )
        out_ids, out_d = _merge_rows(
            ids[:, :m], dists[:, :m], ids[:, m:], dists[:, m:], m
        )
        assert out_ids.dtype == np.uint32 and out_ids.shape == (rows, m)
        for r in range(rows):
            finite = np.flatnonzero(np.isfinite(dists[r]))
            best = sorted(
                finite, key=lambda j: (dists[r, j], int(ids[r, j] & INDEX_MASK))
            )[:m]
            np.testing.assert_array_equal(out_ids[r, : len(best)], ids[r, best])
            np.testing.assert_array_equal(out_d[r, : len(best)], dists[r, best])
            assert (out_ids[r, len(best) :] == INDEX_MASK).all()
            assert np.isinf(out_d[r, len(best) :]).all()


class TestReverseListProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(4, 30), d=st.integers(1, 4))
    def test_reverse_inverts_edges(self, seed, n, d):
        rng = np.random.default_rng(seed)
        d = min(d, n - 1)
        graph = FixedDegreeGraph(_random_graph(rng, n, d).astype(np.uint32))
        reverse = graph.reversed_edge_lists()
        forward_edges = {
            (i, int(j)) for i in range(n) for j in graph.neighbors[i]
        }
        reverse_edges = {
            (int(src), node) for node in range(n) for src in reverse[node]
        }
        assert forward_edges == reverse_edges


class TestSearchContractProperties:
    """End-to-end contract: for arbitrary small datasets, search returns
    k unique, in-range, distance-sorted ids, and never beats brute force."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(30, 120),
        dim=st.integers(3, 12),
        k=st.integers(1, 5),
    )
    def test_search_output_contract(self, seed, n, dim, k):
        from repro import CagraIndex, GraphBuildConfig, SearchConfig
        from repro.baselines import exact_search

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim)).astype(np.float32)
        index = CagraIndex.build(
            data, GraphBuildConfig(graph_degree=4, nn_descent_iterations=3)
        )
        queries = rng.standard_normal((3, dim)).astype(np.float32)
        result = index.search(queries, k, SearchConfig(itopk=max(8, 2 * k)))
        _, exact_d = exact_search(data, queries, k)

        assert result.indices.shape == (3, k)
        assert (result.indices < n).all()
        for row_ids, row_d, best_d in zip(
            result.indices, result.distances, exact_d
        ):
            finite = np.isfinite(row_d)
            assert len(set(row_ids[finite].tolist())) == int(finite.sum())
            assert (np.diff(row_d[finite]) >= -1e-9).all()
            # ANN can never return a smaller distance than the exact best.
            if finite.any():
                assert row_d[0] >= best_d[0] - 1e-3

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fast_path_contract(self, seed):
        from repro import CagraIndex, GraphBuildConfig, SearchConfig

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((80, 8)).astype(np.float32)
        index = CagraIndex.build(
            data, GraphBuildConfig(graph_degree=4, nn_descent_iterations=3)
        )
        queries = rng.standard_normal((4, 8)).astype(np.float32)
        result = index.search_fast(queries, 3, SearchConfig(itopk=8))
        assert result.indices.shape == (4, 3)
        assert (result.indices < 80).all()
