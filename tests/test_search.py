"""Unit tests for repro.core.search — the CAGRA search loop."""

import numpy as np
import pytest

from repro import SearchConfig
from repro.core.config import HashTableConfig
from repro.core.graph import INDEX_MASK
from repro.core.metrics import recall
from repro.core.search import CostReport, search_batch


class TestSearchBatch:
    def test_shapes(self, small_index, small_queries):
        result = small_index.search(small_queries, k=10)
        assert result.indices.shape == (25, 10)
        assert result.distances.shape == (25, 10)

    def test_high_recall_single_cta(self, small_index, small_queries, small_truth):
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=64, algo="single_cta")
        )
        assert recall(result.indices, small_truth) > 0.9

    def test_high_recall_multi_cta(self, small_index, small_queries, small_truth):
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=64, algo="multi_cta")
        )
        assert recall(result.indices, small_truth) > 0.9

    def test_results_sorted_by_distance(self, small_index, small_queries):
        result = small_index.search(small_queries, 10, SearchConfig(itopk=32))
        finite = np.isfinite(result.distances)
        for row, mask in zip(result.distances, finite):
            assert (np.diff(row[mask]) >= 0).all()

    def test_distances_are_true_distances(self, small_index, small_queries):
        from repro.core.distances import distances_to_query

        result = small_index.search(
            small_queries, 5, SearchConfig(itopk=32, algo="single_cta")
        )
        for i in (0, 7, 13):
            ref = distances_to_query(
                small_index.dataset, small_queries[i], result.indices[i]
            )
            np.testing.assert_allclose(result.distances[i], ref, rtol=1e-3, atol=1e-3)

    def test_no_duplicate_results(self, small_index, small_queries):
        result = small_index.search(small_queries, 10, SearchConfig(itopk=64))
        for row in result.indices:
            assert len(set(row.tolist())) == 10

    def test_no_parent_flags_in_output(self, small_index, small_queries):
        result = small_index.search(small_queries, 10)
        assert (result.indices <= INDEX_MASK).all()

    def test_deterministic_given_seed(self, small_index, small_queries):
        a = small_index.search(small_queries, 10, SearchConfig(itopk=32, seed=5))
        b = small_index.search(small_queries, 10, SearchConfig(itopk=32, seed=5))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_k_validation(self, small_index, small_queries):
        with pytest.raises(ValueError, match="k="):
            small_index.search(small_queries, 100, SearchConfig(itopk=64))
        with pytest.raises(ValueError, match="k must be"):
            small_index.search(small_queries, 0)

    def test_single_query_1d_input(self, small_index, small_queries):
        result = small_index.search(small_queries[0], k=5)
        assert result.indices.shape == (1, 5)

    def test_auto_picks_multi_cta_for_small_batch(self, small_index, small_queries):
        result = small_index.search(small_queries[:2], 10, SearchConfig(algo="auto"))
        assert result.report.algo == "multi_cta"

    def test_auto_picks_single_cta_for_large_batch(self, small_index, small_queries):
        result = small_index.search(
            small_queries, 10, SearchConfig(algo="auto"), num_sms=8
        )
        assert result.report.algo == "single_cta"

    def test_wider_itopk_does_not_reduce_recall(
        self, small_index, small_queries, small_truth
    ):
        narrow = small_index.search(
            small_queries, 10, SearchConfig(itopk=10, algo="single_cta")
        )
        wide = small_index.search(
            small_queries, 10, SearchConfig(itopk=128, algo="single_cta")
        )
        assert recall(wide.indices, small_truth) >= recall(narrow.indices, small_truth) - 0.02


class TestCostReport:
    def test_counters_populate(self, small_index, small_queries):
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=32, algo="single_cta")
        )
        report = result.report
        assert report.batch_size == 25
        assert report.cta_count == 25
        assert report.iterations > 0
        assert report.distance_computations > 0
        assert report.hash_lookups > 0
        assert report.candidate_gathers > 0

    def test_single_cta_uses_shared_forgettable(self, small_index, small_queries):
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=32, algo="single_cta")
        )
        assert result.report.hash_in_shared
        assert result.report.hash_resets > 0

    def test_multi_cta_uses_device_standard(self, small_index, small_queries):
        result = small_index.search(
            small_queries[:3], 10, SearchConfig(itopk=32, algo="multi_cta")
        )
        assert not result.report.hash_in_shared
        assert result.report.hash_resets == 0

    def test_multi_cta_launches_multiple_ctas_per_query(
        self, small_index, small_queries
    ):
        result = small_index.search(
            small_queries[:4], 10, SearchConfig(itopk=64, algo="multi_cta")
        )
        assert result.report.cta_count >= 4 * 2

    def test_cta_per_query_override(self, small_index, small_queries):
        result = small_index.search(
            small_queries[:2],
            10,
            SearchConfig(itopk=64, algo="multi_cta", cta_per_query=5),
        )
        assert result.report.cta_count == 10

    def test_visited_pruning_skips_work(self, small_index, small_queries):
        """Step ③'s first-time-only rule must actually skip distances."""
        result = small_index.search(
            small_queries, 10, SearchConfig(itopk=64, algo="single_cta")
        )
        assert result.report.skipped_distance_computations > 0

    def test_merge_from_accumulates(self):
        a = CostReport(distance_computations=5, iterations=2, cta_count=1)
        b = CostReport(distance_computations=7, iterations=3, cta_count=2)
        a.merge_from(b)
        assert a.distance_computations == 12
        assert a.iterations == 5
        assert a.cta_count == 3

    def test_every_field_round_trips(self):
        """``as_dict`` and ``merge_from`` are derived from the dataclass
        fields, so no counter can be declared and then forgotten by one
        of them (a new counter needs no edit here either)."""
        import dataclasses

        descriptive = {
            "algo", "batch_size", "hash_in_shared", "hash_log2_size",
            "kernel_launches", "extras",
        }
        names = [f.name for f in dataclasses.fields(CostReport)]
        counters = [name for name in names if name not in descriptive]
        assert descriptive < set(names) and "hash_probes" in counters
        total = CostReport(
            algo="multi_cta", batch_size=4, hash_in_shared=False,
            hash_log2_size=13, kernel_launches=1, extras={"team_size": 8},
            **{name: 100 + i for i, name in enumerate(counters)},
        )
        part = CostReport(
            algo="single_cta", batch_size=1, hash_in_shared=True,
            hash_log2_size=11, kernel_launches=3, extras={"team_size": 2},
            **{name: 1 + i for i, name in enumerate(counters)},
        )
        total.merge_from(part)
        merged = total.as_dict()
        assert list(merged) == [n for n in names if n != "extras"] + ["team_size"]
        for i, name in enumerate(counters):
            assert merged[name] == 101 + 2 * i, name
        # The fields that describe the call keep the owner's values.
        assert merged["algo"] == "multi_cta"
        assert merged["batch_size"] == 4
        assert merged["hash_in_shared"] is False
        assert merged["hash_log2_size"] == 13
        assert merged["kernel_launches"] == 1
        assert merged["team_size"] == 8


class TestSearchKnobs:
    def test_search_width_scales_candidates(self, small_index, small_queries):
        p1 = small_index.search(
            small_queries[:5], 10, SearchConfig(itopk=64, search_width=1, algo="single_cta")
        )
        p4 = small_index.search(
            small_queries[:5], 10, SearchConfig(itopk=64, search_width=4, algo="single_cta")
        )
        gathers_per_iter_1 = p1.report.candidate_gathers / max(1, p1.report.iterations)
        gathers_per_iter_4 = p4.report.candidate_gathers / max(1, p4.report.iterations)
        assert gathers_per_iter_4 > gathers_per_iter_1 * 2

    def test_max_iterations_caps_work(self, small_index, small_queries):
        capped = small_index.search(
            small_queries[:5], 10, SearchConfig(itopk=64, max_iterations=3, algo="single_cta")
        )
        assert capped.report.iterations <= 3 * 5

    def test_min_iterations_forces_work(self, small_index, small_queries):
        config = SearchConfig(
            itopk=16, min_iterations=30, max_iterations=40, algo="single_cta"
        )
        result = small_index.search(small_queries[:3], 10, config)
        assert result.report.iterations >= 3 * 30 or result.report.iterations >= 3 * 16

    def test_custom_hash_table_config(self, small_index, small_queries):
        config = SearchConfig(
            itopk=32,
            algo="single_cta",
            hash_table=HashTableConfig(kind="standard", log2_size=14),
        )
        result = small_index.search(small_queries[:4], 10, config)
        assert not result.report.hash_in_shared
        assert result.report.hash_log2_size >= 14

    def test_multi_cta_rejects_forgettable(self, small_index, small_queries):
        config = SearchConfig(
            algo="multi_cta", hash_table=HashTableConfig(kind="forgettable")
        )
        with pytest.raises(ValueError, match="standard"):
            small_index.search(small_queries[:1], 10, config)

    def test_forgettable_recall_not_catastrophic(
        self, small_index, small_queries, small_truth
    ):
        """Paper: periodic resets must not catastrophically hurt recall."""
        tiny_table = SearchConfig(
            itopk=64,
            algo="single_cta",
            hash_table=HashTableConfig(kind="forgettable", log2_size=8, reset_interval=1),
        )
        result = small_index.search(small_queries, 10, tiny_table)
        assert recall(result.indices, small_truth) > 0.85


class TestSearchSingleQuery:
    def test_explicit_algo_dispatch(self, small_index, small_queries):
        for algo in ("single_cta", "multi_cta"):
            result = small_index.engine().search(
                small_queries[0][None], 5, SearchConfig(itopk=32, algo=algo),
                mode="reference",
            )
            assert result.indices.shape == (1, 5)
            assert result.report.algo == algo

    def test_multi_cta_explores_more_per_iteration(self, small_index, small_queries):
        """Paper Sec. IV-C2: multi-CTA searches num_cta * d nodes per
        round vs p * d for single-CTA — higher recall at equal rounds."""
        engine = small_index.engine()
        single, multi = (
            engine.search(
                small_queries[0][None], 5, SearchConfig(itopk=64, algo=algo),
                mode="reference",
            ).report
            for algo in ("single_cta", "multi_cta")
        )
        assert multi.cta_count > single.cta_count
