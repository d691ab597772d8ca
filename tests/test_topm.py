"""Unit tests for repro.core.topm."""

import numpy as np
import pytest

from repro.core.graph import INDEX_MASK, PARENT_FLAG
from repro.core.topm import (
    INF_ORDER_BITS,
    bitonic_comparator_count,
    bitonic_merge,
    bitonic_sort,
    float32_from_order_bits,
    float32_order_bits,
    merge_topm,
    radix_topk,
    sort_strategy,
)


class TestFloat32OrderBits:
    """The key trick shared by the NN-descent merge and the dense engine
    merge: unsigned order of the bits is float order."""

    VALUES = np.array(
        [-np.inf, -np.finfo(np.float32).max, -3.5, -1e-30, -1e-45, -0.0, 0.0,
         1e-45, 1e-30, 0.25, 7.0, np.finfo(np.float32).max, np.inf],
        dtype=np.float32,
    )

    def test_unsigned_order_is_float_order(self):
        bits = float32_order_bits(self.VALUES.copy())
        assert bits.dtype == np.uint32
        # strictly increasing apart from the one tie: -0.0 == +0.0
        steps = np.diff(bits.astype(np.int64))
        assert (steps[np.diff(self.VALUES) > 0] > 0).all()
        assert bits[5] == bits[6]
        assert bits[-1] == INF_ORDER_BITS and (bits[:-1] < INF_ORDER_BITS).all()

    def test_round_trip_folds_negative_zero(self):
        back = float32_from_order_bits(float32_order_bits(self.VALUES.copy()))
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, self.VALUES)
        assert not np.signbit(back[5])  # -0.0 came back as +0.0

    def test_encodes_in_place(self):
        values = self.VALUES.copy()
        bits = float32_order_bits(values)
        assert np.shares_memory(bits, values)


class TestBitonicMerge:
    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (4, 4), (13, 9), (0, 5), (7, 0), (32, 32)])
    def test_merges_sorted_runs(self, n_a, n_b):
        rng = np.random.default_rng(n_a * 100 + n_b)
        a = np.sort(rng.random(n_a))
        b = np.sort(rng.random(n_b))
        keys, values = bitonic_merge(
            a, np.arange(n_a, dtype=np.uint32),
            b, np.arange(100, 100 + n_b, dtype=np.uint32),
        )
        np.testing.assert_allclose(keys, np.sort(np.concatenate([a, b])))
        assert len(values) == n_a + n_b

    def test_values_travel_with_keys(self):
        a = np.array([1.0, 3.0])
        b = np.array([2.0, 4.0])
        keys, values = bitonic_merge(
            a, np.array([10, 30], dtype=np.uint32),
            b, np.array([20, 40], dtype=np.uint32),
        )
        np.testing.assert_array_equal(values, [10, 20, 30, 40])

    def test_with_inf_entries(self):
        a = np.array([1.0, np.inf])
        b = np.array([0.5, np.inf])
        keys, _ = bitonic_merge(
            a, np.zeros(2, dtype=np.uint32), b, np.zeros(2, dtype=np.uint32)
        )
        np.testing.assert_array_equal(keys[:2], [0.5, 1.0])


class TestRadixTopk:
    def test_matches_numpy_partition(self):
        rng = np.random.default_rng(0)
        keys = rng.random(2000).astype(np.float64)
        k, v = radix_topk(keys, np.arange(2000, dtype=np.uint32), 50)
        np.testing.assert_allclose(np.sort(k), np.sort(keys)[:50], rtol=1e-6)

    def test_negative_keys(self):
        """Inner-product 'distances' are negative; radix must handle them."""
        rng = np.random.default_rng(1)
        keys = rng.standard_normal(500)
        k, v = radix_topk(keys, np.arange(500, dtype=np.uint32), 10)
        np.testing.assert_allclose(np.sort(k), np.sort(keys)[:10], rtol=1e-5)
        np.testing.assert_allclose(keys[v], k)

    def test_inf_sorts_last(self):
        keys = np.array([np.inf, 1.0, np.inf, 0.0])
        k, _ = radix_topk(keys, np.arange(4, dtype=np.uint32), 4)
        np.testing.assert_array_equal(k[:2], [0.0, 1.0])
        assert np.isinf(k[2:]).all()

    def test_empty(self):
        k, v = radix_topk(np.empty(0), np.empty(0, dtype=np.uint32), 3)
        assert len(k) == 0


class TestBitonicSort:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 33, 64])
    def test_sorts_arbitrary_lengths(self, n):
        rng = np.random.default_rng(n)
        keys = rng.random(n)
        values = np.arange(n, dtype=np.uint32)
        sorted_keys, sorted_values = bitonic_sort(keys, values)
        np.testing.assert_allclose(sorted_keys, np.sort(keys))
        # Values travel with their keys.
        np.testing.assert_allclose(keys[sorted_values], sorted_keys)

    def test_handles_inf(self):
        keys = np.array([np.inf, 1.0, np.inf, 0.5])
        values = np.arange(4, dtype=np.uint32)
        sorted_keys, _ = bitonic_sort(keys, values)
        np.testing.assert_array_equal(sorted_keys[:2], [0.5, 1.0])

    def test_empty_ok(self):
        keys, values = bitonic_sort(np.empty(0), np.empty(0, dtype=np.uint32))
        assert len(keys) == 0


class TestComparatorCount:
    def test_known_values(self):
        # n=4: (4/2) * 2 * 3 / 2 = 6 comparators.
        assert bitonic_comparator_count(4) == 6
        # n=8: 4 * 3 * 4 / 2 = 24.
        assert bitonic_comparator_count(8) == 24

    def test_rounds_up_to_pow2(self):
        assert bitonic_comparator_count(5) == bitonic_comparator_count(8)

    def test_trivial(self):
        assert bitonic_comparator_count(0) == 0
        assert bitonic_comparator_count(1) == 0


class TestSortStrategy:
    def test_rule_of_512(self):
        """Sec. IV-B2: warp bitonic <= 512 candidates, CTA radix above."""
        assert sort_strategy(512) == "warp_bitonic"
        assert sort_strategy(513) == "cta_radix"
        assert sort_strategy(32) == "warp_bitonic"


class TestMergeTopm:
    def test_basic_merge(self):
        topm_ids = np.array([1, 2], dtype=np.uint32)
        topm_d = np.array([1.0, 3.0])
        cand_ids = np.array([3], dtype=np.uint32)
        cand_d = np.array([2.0])
        ids, dists = merge_topm(topm_ids, topm_d, cand_ids, cand_d, 3)
        np.testing.assert_array_equal(ids, [1, 3, 2])
        np.testing.assert_allclose(dists, [1.0, 2.0, 3.0])

    def test_truncates_to_m(self):
        ids, dists = merge_topm(
            np.array([1, 2], dtype=np.uint32),
            np.array([1.0, 2.0]),
            np.array([3, 4], dtype=np.uint32),
            np.array([0.5, 3.0]),
            2,
        )
        np.testing.assert_array_equal(ids, [3, 1])

    def test_pads_short_input(self):
        ids, dists = merge_topm(
            np.array([5], dtype=np.uint32),
            np.array([1.0]),
            np.empty(0, dtype=np.uint32),
            np.empty(0),
            4,
        )
        assert len(ids) == 4
        assert ids[0] == 5
        assert (ids[1:] == INDEX_MASK).all()
        assert np.isinf(dists[1:]).all()

    def test_parent_flag_travels(self):
        flagged = np.uint32(7) | PARENT_FLAG
        ids, _ = merge_topm(
            np.array([flagged], dtype=np.uint32),
            np.array([1.0]),
            np.array([8], dtype=np.uint32),
            np.array([2.0]),
            2,
        )
        assert ids[0] == flagged

    def test_duplicate_bare_id_keeps_topm_copy(self):
        """A parented top-M entry must not be displaced by its unparented
        candidate twin (the flag would be lost and the node re-expanded)."""
        flagged = np.uint32(7) | PARENT_FLAG
        ids, dists = merge_topm(
            np.array([flagged], dtype=np.uint32),
            np.array([1.5]),
            np.array([7], dtype=np.uint32),
            np.array([1.5]),
            2,
        )
        assert ids[0] == flagged
        assert (ids[1:] == INDEX_MASK).all()

    def test_result_sorted(self):
        rng = np.random.default_rng(0)
        topm_d = np.sort(rng.random(8))
        cand_d = rng.random(16)
        ids, dists = merge_topm(
            np.arange(8, dtype=np.uint32),
            topm_d,
            np.arange(100, 116, dtype=np.uint32),
            cand_d,
            8,
        )
        assert (np.diff(dists) >= 0).all()

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(1)
        topm_ids = np.arange(16, dtype=np.uint32)
        topm_d = np.sort(rng.random(16))
        cand_ids = np.arange(100, 132, dtype=np.uint32)
        cand_d = rng.random(32)
        ids, dists = merge_topm(topm_ids, topm_d, cand_ids, cand_d, 16)
        all_d = np.concatenate([topm_d, cand_d])
        expected = np.sort(all_d)[:16]
        np.testing.assert_allclose(dists, expected)
