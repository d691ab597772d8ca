"""White-box tests of the CAGRA search loop mechanics."""

import numpy as np
import pytest

from repro import SearchConfig
from repro.core.config import HashTableConfig
from repro.core.graph import INDEX_MASK, PARENT_FLAG
from repro.core.hashtable import StandardHashTable
from repro.core.metrics import recall
from repro.core.search import CostReport, _greedy_core, search_batch


class TestGreedyCore:
    """Direct exercise of one CTA's loop with controlled seeds."""

    def _run(self, index, query, seed_ids, itopk=16, width=1, max_iter=50):
        report = CostReport()
        table = StandardHashTable(12)
        ids, dists = _greedy_core(
            index.dataset,
            index.graph,
            query,
            itopk,
            width,
            max_iter,
            0,
            table,
            0,  # seed
            0,  # query key
            0,  # worker
            "sqeuclidean",
            report,
            seed_ids=np.asarray(seed_ids, dtype=np.uint32),
        )
        return ids, dists, report

    def test_explicit_seeds_are_visited(self, small_index, small_queries):
        ids, dists, report = self._run(small_index, small_queries[0], [5, 10, 15])
        assert report.random_inits == 3
        assert report.distance_computations >= 3

    def test_all_topm_entries_end_parented(self, small_index, small_queries):
        ids, _, _ = self._run(small_index, small_queries[0], [1, 2, 3], max_iter=500)
        real = ids[ids != INDEX_MASK]
        assert ((real & PARENT_FLAG) != 0).all()

    def test_duplicate_seeds_counted_once(self, small_index, small_queries):
        _, _, report = self._run(small_index, small_queries[0], [7, 7, 7])
        # Only the first copy computes a distance at initialization.
        assert report.skipped_distance_computations >= 2

    def test_greedy_descends(self, small_index, small_queries):
        """The best distance in the final buffer must beat the seeds'."""
        from repro.core.distances import distances_to_query

        seeds = [3, 400, 800]
        seed_d = distances_to_query(
            small_index.dataset, small_queries[0], np.array(seeds)
        )
        _, dists, _ = self._run(small_index, small_queries[0], seeds, max_iter=200)
        assert dists[0] <= seed_d.min()

    def test_max_iterations_zero_iterations_cap(self, small_index, small_queries):
        _, _, report = self._run(small_index, small_queries[0], [1], max_iter=2)
        assert report.iterations <= 2


class TestSortStrategyIntegration:
    def test_small_candidate_buffer_uses_bitonic(self, small_index, small_queries):
        result = small_index.search(
            small_queries[:3], 10,
            SearchConfig(itopk=32, algo="single_cta", search_width=1),
        )
        assert result.report.sort_comparator_ops > 0
        assert result.report.radix_sorted_elements == 0

    def test_huge_candidate_buffer_uses_radix(self, small_index, small_queries):
        """search_width 64 x degree 16 = 1024 candidates > 512 -> radix."""
        result = small_index.search(
            small_queries[:2], 10,
            SearchConfig(itopk=64, algo="single_cta", search_width=64),
        )
        assert result.report.radix_sorted_elements > 0


class TestBatchSemantics:
    def test_result_independent_of_batch_position(self, small_index, small_queries):
        """Draws are keyed on the query's bytes: query 3 alone == query 3
        in a batch."""
        config = SearchConfig(itopk=32, seed=11, algo="single_cta")
        batch = small_index.search(small_queries[:10], 10, config)
        alone = small_index.search(small_queries[3:4], 10, config)
        np.testing.assert_array_equal(batch.indices[3], alone.indices[0])

    def test_recomputed_counter_only_with_forgettable(self, small_index, small_queries):
        standard = small_index.search(
            small_queries[:5], 10,
            SearchConfig(itopk=64, algo="single_cta",
                         hash_table=HashTableConfig(kind="standard", log2_size=14)),
        )
        assert standard.report.recomputed_distances == 0
        forget = small_index.search(
            small_queries[:5], 10,
            SearchConfig(itopk=64, algo="single_cta",
                         hash_table=HashTableConfig(kind="forgettable",
                                                    log2_size=10, reset_interval=1)),
        )
        assert forget.report.recomputed_distances > 0

    def test_recomputed_never_exceeds_computed(self, small_index, small_queries):
        result = small_index.search(
            small_queries, 10,
            SearchConfig(itopk=64, algo="single_cta",
                         hash_table=HashTableConfig(kind="forgettable",
                                                    log2_size=9, reset_interval=1)),
        )
        assert 0 < result.report.recomputed_distances <= result.report.distance_computations

    def test_empty_metric_consistency(self, small_index, small_queries):
        """search_batch validates against the graph it was given."""
        with pytest.raises(ValueError):
            search_batch(
                small_index.dataset, small_index.graph, small_queries, 5,
                SearchConfig(itopk=16),
                filter_mask=np.ones(3, dtype=bool),
            )


class TestParentFlagMechanics:
    def test_parents_never_reexpanded_with_standard_hash(
        self, small_index, small_queries
    ):
        """With a standard hash, candidate gathers = iterations x p x d
        exactly — each parent contributes once."""
        result = small_index.search(
            small_queries[:5], 10,
            SearchConfig(itopk=32, algo="single_cta",
                         hash_table=HashTableConfig(kind="standard", log2_size=14)),
        )
        d = small_index.degree
        assert result.report.candidate_gathers <= result.report.iterations * d

    def test_output_strips_flags(self, small_index, small_queries):
        result = small_index.search(small_queries, 10, SearchConfig(itopk=64))
        assert (result.indices < small_index.size).all()
