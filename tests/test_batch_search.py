"""Tests for the vectorized lockstep batch search (fast path)."""

import os

import numpy as np
import pytest

from repro import SearchConfig
from repro.core.graph import INDEX_MASK, PARENT_FLAG
from repro.core.metrics import recall
from repro.core.rng_init import counter_draws, query_keys
from repro.core.traversal import (
    _DenseVisited,
    _DenseWide,
    _merge_rows_reference,
    _Pairs,
)


def dense_merge(topm_ids, topm_dists, cand_ids, cand_dists, m):
    """The dense backend's merge through its seam, on ``(ids, dists)``
    lanes (ids may carry ``PARENT_FLAG``; ``+inf`` lanes are non-first
    visits).  float32 distances pack: ``candidates`` keys the finite lanes,
    ``mark_parents`` sets each flag, ``merge`` sorts and ``decode`` reads the
    result back, flags restored from ``selectable``.  Any other dtype
    takes the float64 arm's ``(ids, dists)`` pairs."""
    rows = len(topm_ids)
    if np.asarray(topm_dists).dtype != np.float32:
        visited = _DenseWide(rows, 0)
        topm, cand = _Pairs(topm_ids, topm_dists), _Pairs(cand_ids, cand_dists)
    else:
        visited = _DenseVisited(rows, 0)
        ids = np.concatenate([topm_ids, cand_ids], axis=1).astype(np.uint32)
        dists = np.concatenate([topm_dists, cand_dists], axis=1)
        at = np.flatnonzero(np.isfinite(dists))
        keys = visited.candidates(
            ids, None, at, ids.reshape(-1)[at] & INDEX_MASK, dists.reshape(-1)[at].copy()
        )
        for lane in range(ids.shape[1]):
            flagged = (ids[:, lane : lane + 1] & PARENT_FLAG) != 0
            visited.mark_parents(keys, np.full((rows, 1), lane), flagged)
        split = topm_ids.shape[1]
        topm, cand = keys[:, :split], keys[:, split:]
    merged = visited.merge(topm, cand, m)
    out_ids, out_dists = visited.decode(merged)
    flagged = ~visited.selectable(merged) & (out_ids != INDEX_MASK)
    return np.where(flagged, out_ids | PARENT_FLAG, out_ids), out_dists


class TestMergeRows:
    def test_basic(self):
        topm = np.array([[1, 2]], dtype=np.uint32)
        topm_d = np.array([[1.0, 3.0]])
        cand = np.array([[3]], dtype=np.uint32)
        cand_d = np.array([[2.0]])
        ids, dists = dense_merge(topm, topm_d, cand, cand_d, 3)
        np.testing.assert_array_equal(ids, [[1, 3, 2]])
        np.testing.assert_allclose(dists, [[1.0, 2.0, 3.0]])

    def test_parented_copy_wins(self):
        flagged = np.uint32(7) | PARENT_FLAG
        topm = np.array([[flagged]], dtype=np.uint32)
        topm_d = np.array([[1.5]])
        cand = np.array([[7]], dtype=np.uint32)
        cand_d = np.array([[1.5]])
        ids, dists = _merge_rows_reference(topm, topm_d, cand, cand_d, 2)
        np.testing.assert_array_equal(ids, [[flagged, INDEX_MASK]])
        np.testing.assert_array_equal(dists, [[1.5, np.inf]])

    def test_matches_scalar_merge_topm(self):
        from repro.core.topm import merge_topm

        rng = np.random.default_rng(0)
        for _ in range(10):
            topm_ids = rng.choice(100, size=8, replace=False).astype(np.uint32)
            topm_d = np.sort(rng.random(8))
            cand_ids = rng.choice(100, size=12, replace=True).astype(np.uint32)
            cand_d = rng.random(12)
            cand_d[rng.random(12) < 0.25] = np.inf  # non-first visits
            ref_ids, ref_d = merge_topm(topm_ids, topm_d, cand_ids, cand_d, 8)
            got_ids, got_d = _merge_rows_reference(
                topm_ids[None], topm_d[None], cand_ids[None], cand_d[None], 8
            )
            np.testing.assert_array_equal(got_d[0], ref_d)
            np.testing.assert_array_equal(got_ids[0], ref_ids)  # inf slots too

    def test_rows_independent(self):
        rng = np.random.default_rng(1)
        topm = rng.choice(50, size=(3, 4), replace=True).astype(np.uint32)
        topm_d = np.sort(rng.random((3, 4)), axis=1)
        cand = rng.choice(50, size=(3, 6), replace=True).astype(np.uint32)
        cand_d = rng.random((3, 6))
        for dtype in (np.float32, np.float64):  # packed keys, two-key arm
            args = topm, topm_d.astype(dtype), cand, cand_d.astype(dtype)
            ids_all, d_all = dense_merge(*args, 4)
            for row in range(3):
                ids_one, d_one = dense_merge(*(a[row : row + 1] for a in args), 4)
                np.testing.assert_allclose(d_all[row], d_one[0])


class TestSearchBatchFast:
    def test_recall_matches_reference(self, small_index, small_queries, small_truth):
        config = SearchConfig(itopk=64, algo="single_cta")
        ref = small_index.search(small_queries, 10, config)
        fast = small_index.search_fast(small_queries, 10, config)
        ref_recall = recall(ref.indices, small_truth)
        fast_recall = recall(fast.indices, small_truth)
        assert fast_recall >= ref_recall - 0.05

    def test_contract_properties(self, small_index, small_queries):
        result = small_index.search_fast(small_queries, 10, SearchConfig(itopk=32))
        assert result.indices.shape == (len(small_queries), 10)
        assert (result.indices <= INDEX_MASK).all()
        finite = np.isfinite(result.distances)
        for row, mask in zip(result.distances, finite):
            assert (np.diff(row[mask]) >= 0).all()
        for row in result.indices:
            assert len(set(row.tolist())) == len(row)

    def test_distances_are_true(self, small_index, small_queries):
        from repro.core.distances import distances_to_query

        result = small_index.search_fast(small_queries[:5], 5, SearchConfig(itopk=32))
        for i in range(5):
            ref = distances_to_query(
                small_index.dataset, small_queries[i], result.indices[i]
            )
            np.testing.assert_allclose(result.distances[i], ref, rtol=1e-3, atol=1e-3)

    def test_deterministic(self, small_index, small_queries):
        config = SearchConfig(itopk=32, seed=7)
        a = small_index.search_fast(small_queries, 5, config)
        b = small_index.search_fast(small_queries, 5, config)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_same_init_as_reference(self, small_index, small_queries):
        """Fast and reference paths draw identical per-query seed nodes."""
        config = SearchConfig(itopk=16, max_iterations=1, seed=5)
        fast = small_index.search_fast(small_queries[:3], 5, config)
        ref = small_index.search(
            small_queries[:3], 5, config.with_overrides(algo="single_cta")
        )
        # After one iteration both have merged exactly the init candidates.
        np.testing.assert_array_equal(fast.indices[:, 0], ref.indices[:, 0])

    def test_counters_populate(self, small_index, small_queries):
        result = small_index.search_fast(small_queries, 10, SearchConfig(itopk=32))
        report = result.report
        assert report.distance_computations > 0
        assert report.candidate_gathers > 0
        assert report.iterations > 0
        assert report.batch_size == len(small_queries)

    def test_filter_mask(self, small_index, small_queries):
        mask = np.zeros(small_index.size, dtype=bool)
        mask[::2] = True
        result = small_index.search_fast(
            small_queries, 5, SearchConfig(itopk=64), filter_mask=mask
        )
        assert (result.indices % 2 == 0).all()

    def test_filter_validation(self, small_index, small_queries):
        with pytest.raises(ValueError, match="one entry per dataset row"):
            small_index.search_fast(
                small_queries, 5, filter_mask=np.ones(3, dtype=bool)
            )

    def test_search_width_supported(self, small_index, small_queries, small_truth):
        result = small_index.search_fast(
            small_queries, 10, SearchConfig(itopk=64, search_width=2)
        )
        assert recall(result.indices, small_truth) > 0.9

    def test_faster_than_reference(self, small_index, small_queries):
        import time

        config = SearchConfig(itopk=64, algo="single_cta")
        started = time.perf_counter()
        small_index.search(small_queries, 10, config)
        ref_time = time.perf_counter() - started
        started = time.perf_counter()
        small_index.search_fast(small_queries, 10, config)
        fast_time = time.perf_counter() - started
        assert fast_time < ref_time

    def test_k_validation(self, small_index, small_queries):
        with pytest.raises(ValueError, match="k must be"):
            small_index.search_fast(small_queries, 0)


class TestChunking:
    def test_chunked_equals_unchunked(self, small_index, small_queries, monkeypatch):
        """Forcing a tiny visited-table budget must not change results:
        a query's random draws are keyed on its bytes, not its chunk."""
        from repro.core import traversal

        config = SearchConfig(itopk=32, seed=3)
        whole = small_index.search_fast(small_queries, 5, config)
        monkeypatch.setattr(
            traversal, "_VISITED_BUDGET_BYTES", small_index.size * 7
        )
        chunked = small_index.search_fast(small_queries, 5, config)
        np.testing.assert_array_equal(whole.indices, chunked.indices)
        np.testing.assert_allclose(whole.distances, chunked.distances)

    def test_chunked_counters_aggregate(self, small_index, small_queries, monkeypatch):
        from repro.core import traversal

        config = SearchConfig(itopk=32, seed=3)
        whole = small_index.search_fast(small_queries, 5, config)
        monkeypatch.setattr(
            traversal, "_VISITED_BUDGET_BYTES", small_index.size * 7
        )
        chunked = small_index.search_fast(small_queries, 5, config)
        assert chunked.report.batch_size == len(small_queries)
        assert chunked.report.distance_computations == whole.report.distance_computations


#: Counters the fast path must reproduce exactly (``hash_probes`` is the
#: one documented modeling difference: the fast path's boolean visited
#: table charges a flat two probes per lookup, while the reference
#: measures real open-addressing probe sequences).
PARITY_COUNTERS = (
    "batch_size",
    "cta_count",
    "iterations",
    "distance_computations",
    "skipped_distance_computations",
    "recomputed_distances",
    "candidate_gathers",
    "sort_comparator_ops",
    "radix_sorted_elements",
    "serial_queue_ops",
    "hash_lookups",
    "hash_insertions",
    "hash_resets",
    "random_inits",
)


def _duplicate_heavy_fixture():
    """A tiny index whose adjacency lists repeat every neighbor.

    Each gather therefore produces intra-gather duplicate candidates on
    every iteration (and random init collides often on 40 nodes) — the
    regression case where the fast path used to overcount: the reference
    hash admits one insertion per *distinct* fresh id per gather, so a
    duplicated id must be counted (and its distance computed) once.
    """
    from repro import CagraIndex
    from repro.core.graph import FixedDegreeGraph

    rng = np.random.default_rng(42)
    n, dim = 40, 8
    data = rng.standard_normal((n, dim)).astype(np.float32)
    base = np.stack(
        [(np.arange(n) + step) % n for step in (1, 2, 3)], axis=1
    )
    neighbors = np.repeat(base, 2, axis=1).astype(np.uint32)  # degree 6, all dup'd
    return CagraIndex(data, FixedDegreeGraph(neighbors)), rng.standard_normal(
        (8, dim)
    ).astype(np.float32)


class TestCounterParity:
    """Fast-path counters must match the reference exactly (same hash
    semantics: a standard table large enough never to recompute)."""

    @staticmethod
    def _configs(itopk, seed=0, search_width=1):
        from repro import HashTableConfig

        table = HashTableConfig(kind="standard", log2_size=16)
        fast = SearchConfig(itopk=itopk, seed=seed, search_width=search_width,
                            hash_table=table)
        ref = fast.with_overrides(algo="single_cta")
        return fast, ref

    def _assert_parity(self, index, queries, k, fast_config, ref_config):
        fast = index.search_fast(queries, k, fast_config)
        ref = index.search(queries, k, ref_config)
        np.testing.assert_array_equal(fast.indices, ref.indices)
        fast_counters = fast.report.as_dict()
        ref_counters = ref.report.as_dict()
        for name in PARITY_COUNTERS:
            assert fast_counters[name] == ref_counters[name], (
                f"{name}: fast={fast_counters[name]} ref={ref_counters[name]}"
            )

    def test_duplicate_candidate_regression(self):
        index, queries = _duplicate_heavy_fixture()
        fast_config, ref_config = self._configs(itopk=16, seed=3)
        self._assert_parity(index, queries, 5, fast_config, ref_config)

    def test_duplicate_regression_wider_search(self):
        index, queries = _duplicate_heavy_fixture()
        fast_config, ref_config = self._configs(itopk=16, seed=7, search_width=2)
        self._assert_parity(index, queries, 5, fast_config, ref_config)

    def test_parity_on_real_index(self, small_index, small_queries):
        fast_config, ref_config = self._configs(itopk=64)
        self._assert_parity(
            small_index, small_queries[:10], 10, fast_config, ref_config
        )


    def test_partial_parent_pick_regression(self):
        """``search_width`` > unparented entries left: the unpicked parent
        slots traverse a stand-in node whose lanes are unusable.  Those
        lanes used to share a duplicate-index write with usable lanes on
        the dense table and could un-mark a node just visited, so it was
        "first visited" (and its distance charged) twice."""
        from repro import CagraIndex
        from repro.core.graph import FixedDegreeGraph

        rng = np.random.default_rng(14)
        n = int(rng.integers(20, 80))
        degree = int(rng.choice([4, 6, 8]))
        data = rng.standard_normal((n, 4)).astype(np.float32)
        neighbors = rng.integers(0, n, size=(n, degree)).astype(np.uint32)
        index = CagraIndex(data, FixedDegreeGraph(neighbors))
        queries = rng.standard_normal((6, 4)).astype(np.float32)
        width = int(rng.choice([2, 3]))
        itopk = int(rng.choice([8, 16]))
        fast_config, ref_config = self._configs(itopk, seed=14, search_width=width)
        self._assert_parity(index, queries, 4, fast_config, ref_config)


def _duplicate_vector_case():
    """300 rows drawn from only 60 distinct vectors: every query sees
    exact distance ties between distinct ids, the case where the top-M
    merge's tie-break (bare id) decides the result order."""
    from repro import CagraIndex, GraphBuildConfig

    rng = np.random.default_rng(11)
    distinct = rng.standard_normal((60, 8)).astype(np.float32)
    data = np.repeat(distinct, 5, axis=0)[rng.permutation(300)]
    queries = rng.standard_normal((16, 8)).astype(np.float32)
    index = CagraIndex.build(data, GraphBuildConfig(graph_degree=8, seed=0))
    mask = np.ones(300, dtype=bool)
    mask[::3] = False
    return index, queries, mask


DUPLICATE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "duplicate_vectors_fast.npz"
)


def _duplicate_vector_run(index, queries, mask, search_width, filtered):
    return index.search_fast(
        queries,
        10,
        SearchConfig(itopk=32, seed=5, search_width=search_width),
        filter_mask=mask if filtered else None,
    )


def _duplicate_vector_outputs() -> dict[str, np.ndarray]:
    """Ids, distances and the 14 parity counters of ``search_fast`` on
    :func:`_duplicate_vector_case`, per search width and filter.

    Re-record (only ever from a commit whose search is trusted) with
    ``np.savez_compressed(DUPLICATE_FIXTURE, **_duplicate_vector_outputs())``.
    """
    index, queries, mask = _duplicate_vector_case()
    out = {}
    for search_width in (1, 2):
        for filtered in (False, True):
            result = _duplicate_vector_run(index, queries, mask, search_width, filtered)
            prefix = f"w{search_width}_{'filtered' if filtered else 'plain'}"
            counters = result.report.as_dict()
            out[f"{prefix}_indices"] = result.indices
            out[f"{prefix}_distances"] = result.distances
            out[f"{prefix}_counters"] = np.array(
                [counters[name] for name in PARITY_COUNTERS], dtype=np.int64
            )
    return out


class TestDuplicateVectorRegression:
    """``search_fast`` on a tie-heavy dataset stays bitwise what
    :func:`_duplicate_vector_outputs` recorded in
    ``fixtures/duplicate_vectors_fast.npz``: the case where the top-M
    merge's tie-break decides the result order.
    """

    @pytest.fixture(scope="class")
    def case(self):
        with np.load(DUPLICATE_FIXTURE) as archive:
            expected = {key: archive[key] for key in archive.files}
        return _duplicate_vector_case() + (expected,)

    @pytest.mark.parametrize("search_width", [1, 2])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_bitwise_against_recorded_run(self, case, search_width, filtered):
        index, queries, mask, expected = case
        result = _duplicate_vector_run(index, queries, mask, search_width, filtered)
        prefix = f"w{search_width}_{'filtered' if filtered else 'plain'}"
        # The case is only a regression if ties actually reach the output.
        assert (np.diff(expected[f"{prefix}_distances"], axis=1) == 0).any()
        np.testing.assert_array_equal(result.indices, expected[f"{prefix}_indices"])
        np.testing.assert_array_equal(
            result.distances, expected[f"{prefix}_distances"]
        )
        counters = result.report.as_dict()
        got = np.array([counters[name] for name in PARITY_COUNTERS], dtype=np.int64)
        np.testing.assert_array_equal(got, expected[f"{prefix}_counters"])
        if filtered:
            assert mask[result.indices].all()


class TestChunkReportIntegrity:
    def test_chunk_totals_are_exact(self, small_index, small_queries, monkeypatch):
        """The engine accumulates all chunks into one report; chunking must
        split the work without perturbing a single counter (the historical
        bug class was an aliased chunk-0 accumulator)."""
        from repro.core import traversal

        config = SearchConfig(itopk=32, seed=3)
        whole = small_index.search_fast(small_queries, 5, config).report

        monkeypatch.setattr(
            traversal, "_VISITED_BUDGET_BYTES", small_index.size * 7
        )
        calls = []
        original = traversal.TraversalEngine._run_chunk

        def recording(self, queries, *args, **kwargs):
            calls.append(queries.shape[0])
            return original(self, queries, *args, **kwargs)

        monkeypatch.setattr(traversal.TraversalEngine, "_run_chunk", recording)
        total = small_index.search_fast(small_queries, 5, config).report
        assert len(calls) > 1
        assert sum(calls) == len(small_queries)
        assert total.batch_size == len(small_queries)
        assert total.as_dict() == whole.as_dict()


class TestCounterDraws:
    """``counter_draws``: the one stateless random-draw function."""

    @staticmethod
    def _keys(rows=6, dim=12):
        return query_keys(np.random.default_rng(3).standard_normal((rows, dim)))

    def test_values_lie_in_range(self):
        for n in (2, 7, 1000, 2**31 - 1, 2**32):
            draws = counter_draws(5, self._keys(), 0, 0, 64, n)
            assert draws.shape == (6, 64) and draws.dtype == np.uint32
            assert int(draws.max()) < n

    def test_single_node_draws_zeros(self):
        np.testing.assert_array_equal(
            counter_draws(5, self._keys(3), 2, 4, 8, 1),
            np.zeros((3, 8), dtype=np.uint32),
        )

    def test_same_inputs_same_draws(self):
        keys = self._keys()
        whole = counter_draws(9, keys, 1, 3, 32, 5000)
        np.testing.assert_array_equal(whole, counter_draws(9, keys, 1, 3, 32, 5000))
        # Rows draw alone exactly as they do in a batch, in any order.
        np.testing.assert_array_equal(whole[4:5], counter_draws(9, keys[4:5], 1, 3, 32, 5000))
        np.testing.assert_array_equal(whole[::-1], counter_draws(9, keys[::-1], 1, 3, 32, 5000))

    def test_distinct_worker_and_step_differ(self):
        keys = self._keys()
        seen = {
            counter_draws(0, keys, w, s, 16, 2**31).tobytes()
            for w in range(4)
            for s in range(4)
        }
        assert len(seen) == 16
        seeds = {counter_draws(seed, keys, 0, 0, 16, 2**31).tobytes() for seed in range(8)}
        assert len(seeds) == 8

    def test_coarse_uniformity(self):
        """131k draws into 3000 bins: the chi-square statistic sits within
        five standard deviations of its 2999 degrees of freedom."""
        bins = 3000
        keys = query_keys(np.arange(1024 * 4, dtype=np.float32).reshape(1024, 4))
        draws = counter_draws(0, keys, 0, 0, 128, bins)
        counts = np.bincount(draws.ravel(), minlength=bins)
        expected = draws.size / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert abs(chi2 - (bins - 1)) < 5 * np.sqrt(2 * (bins - 1))
