"""Property-based tests (hypothesis) for the core data structures.

Invariants checked:

* hash tables behave like Python sets (insert-once semantics);
* bitonic sort equals NumPy sort for any key array;
* merge_topm equals a reference top-M selection for any inputs;
* detour-route counting equals the literal O(d²) reference on random
  graphs, with duplicate neighbour ids and at any block size;
* NN-descent merge keeps rows sorted and deduplicated, scores each fresh
  pair once, and reproduces bit for bit both the lexsort + stable-argsort
  merge and the score-every-candidate merge it replaced; reverse sampling
  and the lockstep reverse-edge merge reproduce their scalar oracles; a
  build whose rounds run one row block at a time is bitwise the build
  whose rounds ran over all rows at once;
* the traversal engine's packed top-M merge, first-occurrence mask and
  parent pick reproduce the stable multi-key code they replaced;
* the row-blocked gathered-distance kernel is bitwise its one-block self;
* graph reverse lists invert the edge relation exactly;
* the block occlusion filter keeps, in order, the ids NSSG's angle test
  and HNSW's Algorithm 4 heuristic keep, and charges what they charged.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import distances as distances_module
from repro.core import nn_descent
from repro.core.config import GraphBuildConfig
from repro.core.distances import METRICS, distances_to_query, gathered_distances
from repro.core.graph import FixedDegreeGraph, INDEX_MASK, occlusion_prune
from repro.core.hashtable import StandardHashTable
from repro.core.nn_descent import _merge_candidates, _reverse_samples
from repro.core.optimize import count_detourable_routes, merge_reverse_edges
from repro.core.topm import bitonic_sort, merge_topm
from tests.oracles import beam as beam_oracle
from tests.oracles import build as oracle
from tests.oracles import prune as prune_oracle

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


def _first_rank_detour_counts(neighbors, distances=None):
    """The literal Fig. 2 / Eq. 3 loop; a node listed twice in X's row is
    found at its *lowest* rank (what the stable sort + left ``searchsorted``
    of the previous counter did — ``test_optimize.reference_detour_counts``
    takes the highest and so only agrees on duplicate-free rows)."""
    n, d = neighbors.shape
    counts = np.zeros((n, d), dtype=np.int64)
    for x in range(n):
        position: dict[int, int] = {}
        for r, y in enumerate(neighbors[x]):
            position.setdefault(int(y), r)
        for a in range(d):
            z = int(neighbors[x, a])
            for j in range(d):
                r_y = position.get(int(neighbors[z, j]))
                if r_y is None:
                    continue
                if distances is None:
                    counts[x, r_y] += max(a, j) < r_y
                else:
                    counts[x, r_y] += (
                        max(distances[x, a], distances[z, j]) < distances[x, r_y]
                    )
    return counts


class TestDenseRankDetourProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        d=st.integers(1, 7),
        use_distances=st.booleans(),
    )
    def test_duplicate_ids_and_any_block(self, seed, n, d, use_distances):
        rng = np.random.default_rng(seed)
        # Ids drawn with replacement (self loops included): most rows
        # repeat a neighbour, so "lowest rank wins" is exercised.
        neighbors = rng.integers(0, n, size=(n, d)).astype(np.uint32)
        distances = None
        if use_distances:
            # A few distinct values: ties between w(X→Z), w(Z→Y), w(X→Y).
            distances = np.sort(
                rng.integers(0, 4, size=(n, d)).astype(np.float32), axis=1
            )
        expected = _first_rank_detour_counts(neighbors, distances)
        for block in (1, 3, n, 256):
            got = count_detourable_routes(neighbors, distances, block=block)
            np.testing.assert_array_equal(got, expected)
        # The byte budget caps rows per batch below ``block``: one row here.
        with mock.patch("repro.core.optimize._RANK_TABLE_BYTES", 1):
            got = count_detourable_routes(neighbors, distances)
        np.testing.assert_array_equal(got, expected)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint32 if values.dtype == np.float32 else np.uint64)


class TestBlockedGatherProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 23),
        width=st.integers(1, 12),
        dim=st.integers(1, 33),
        metric=st.sampled_from(METRICS),
        dtype=st.sampled_from(["float32", "float16", "float64"]),
        # Bytes per block: 1 forces one row per block whatever the shape;
        # the others give several rows and a ragged last block.
        block_bytes=st.sampled_from([1, 700, 3000, 10_000]),
    )
    def test_bitwise_equal_to_one_block(
        self, seed, rows, width, dim, metric, dtype, block_bytes
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((40, dim)).astype(dtype)
        data[3] = 0.0  # zero norm under cosine, -0.0 under inner product
        queries = rng.standard_normal((rows, dim)).astype(np.float32)
        indices = rng.integers(0, 40, size=(rows, width))
        with mock.patch.object(distances_module, "_GATHER_BLOCK_BYTES", 1 << 40):
            whole = gathered_distances(data, queries, indices, metric)
        with mock.patch.object(distances_module, "_GATHER_BLOCK_BYTES", block_bytes):
            blocked = gathered_distances(data, queries, indices, metric)
        assert blocked.dtype == whole.dtype and blocked.shape == (rows, width)
        np.testing.assert_array_equal(_bits(blocked), _bits(whole))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        pairs=st.integers(0, 40),
        dim=st.integers(1, 33),
        metric=st.sampled_from(METRICS),
        dtype=st.sampled_from(["float32", "float16", "float64"]),
        block_bytes=st.sampled_from([1, 700, 1 << 40]),
    )
    def test_query_rows_bitwise_equal_to_query_copies(
        self, seed, pairs, dim, metric, dtype, block_bytes
    ):
        """Flat (query row, node) pairs — the engine's first-visit shape —
        get the bits of the same pairs inside a full (rows, width) slab."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((40, dim)).astype(dtype)
        data[3] = 0.0
        queries = rng.standard_normal((6, dim)).astype(np.float32)
        slab = rng.integers(0, 40, size=(6, 9))
        full = gathered_distances(data, queries, slab, metric)
        at = np.sort(rng.choice(slab.size, size=pairs, replace=False))
        with mock.patch.object(distances_module, "_GATHER_BLOCK_BYTES", block_bytes):
            flat = gathered_distances(
                data, queries, slab.reshape(-1)[at][:, None], metric,
                query_rows=at // 9,
            )
        assert flat.dtype == full.dtype and flat.shape == (pairs, 1)
        np.testing.assert_array_equal(_bits(flat[:, 0]), _bits(full.reshape(-1)[at]))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(0, 40),
        dim=st.integers(1, 300),
        metric=st.sampled_from(METRICS),
        dtype=st.sampled_from(["float32", "float16", "float64"]),
        batch=st.integers(1, 32),
    )
    def test_one_query_kernel_bitwise_equal_to_gathered(
        self, seed, width, dim, metric, dtype, batch
    ):
        """``distances_to_query`` (the sequential specification and the
        baselines) gives every metric and storage dtype the bits
        ``gathered_distances`` (the engine) gives the same pair, in any
        batch row — so a query scores the same alone or batched."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((50, dim)).astype(dtype)
        data[3] = 0.0
        queries = rng.standard_normal((batch, dim)).astype(np.float32)
        indices = rng.integers(0, 50, size=(batch, width))
        indices[:, :1] = 3
        batched = gathered_distances(data, queries, indices, metric)
        for row in range(batch):
            alone = distances_to_query(data, queries[row], indices[row], metric)
            assert alone.dtype == batched.dtype
            np.testing.assert_array_equal(_bits(alone), _bits(batched[row]))
        every = distances_to_query(data, queries[0], metric=metric)
        np.testing.assert_array_equal(
            _bits(every),
            _bits(gathered_distances(data, queries[:1], np.arange(50)[None], metric)[0]),
        )

    def test_row_wider_than_the_real_budget(self):
        """width x dim x 4 bytes above the module's own constant: the block
        degenerates to one row and still takes the same code."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 320)).astype(np.float32)
        indices = rng.integers(0, 50, size=(5, 260))
        assert 260 * 320 * 4 > distances_module._GATHER_BLOCK_BYTES
        blocked = gathered_distances(data, data[:5], indices)
        for row in range(5):
            alone = gathered_distances(data, data[row : row + 1], indices[row : row + 1])
            np.testing.assert_array_equal(_bits(blocked[row]), _bits(alone[0]))


def _lexsort_merge_oracle(ids, dists, cand_ids, cand_dists, k):
    """The two-key ``lexsort`` + stable ``argsort`` merge that
    ``_merge_candidates`` used before it packed keys, kept as an oracle."""
    all_ids = np.concatenate([ids, cand_ids], axis=1)
    all_dists = np.concatenate([dists, cand_dists], axis=1)
    order = np.lexsort((all_dists, all_ids), axis=1)
    sorted_ids = np.take_along_axis(all_ids, order, axis=1)
    sorted_dists = np.take_along_axis(all_dists, order, axis=1)
    dup = np.zeros_like(sorted_dists, dtype=bool)
    dup[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
    sorted_dists[dup] = np.inf
    keep = np.argsort(sorted_dists, axis=1, kind="stable")[:, :k]
    new_ids = np.take_along_axis(sorted_ids, keep, axis=1)
    new_dists = np.take_along_axis(sorted_dists, keep, axis=1)
    entered = np.array(
        [[new not in set(old) for new in row] for row, old in zip(new_ids, ids)]
    )
    return new_ids, new_dists, entered


#: Few distinct values, so ties between different ids are the rule: both
#: zeros, negatives (inner product), +inf, extremes.
_DISTANCE_POOL = np.array(
    [-0.0, 0.0, -3.5, -1e-30, 1e-30, 0.25, 0.25, 7.0, np.inf,
     np.finfo(np.float32).max, -np.finfo(np.float32).max],
    dtype=np.float32,
)


def _pool_distance(salt: int, calls: list | None = None):
    """A pair distance drawn from :data:`_DISTANCE_POOL` that is a function
    of its ``(row, id)`` pair, as every metric is; ``calls`` collects the
    pairs asked for."""

    def distance(rows, ids):
        if calls is not None:
            calls.extend(zip(rows.tolist(), ids.tolist()))
        slot = (ids.astype(np.int64) * 7919 + rows.astype(np.int64) * 104729 + salt)
        return _DISTANCE_POOL[slot % len(_DISTANCE_POOL)]

    return distance


def _merge_inputs(seed, rows, k, n_cand, universe, tail_copies):
    """An old k-NN block and its candidates under :func:`_pool_distance`.

    Old rows may repeat an id (tiny N); with ``tail_copies`` every copy
    after an id's first holds +inf, as the merge leaves surplus copies.
    """
    rng = np.random.default_rng(seed)
    distance = _pool_distance(seed)
    ids = rng.integers(0, universe, size=(rows, k), dtype=np.int64)
    cand = rng.integers(0, universe, size=(rows, n_cand), dtype=np.int64)
    row_of = np.repeat(np.arange(rows), k)
    dists = distance(row_of, ids.ravel()).reshape(rows, k).copy()
    if tail_copies:
        for r in range(rows):
            seen: set[int] = set()
            for c, i in enumerate(ids[r].tolist()):
                if i in seen:
                    dists[r, c] = np.inf
                seen.add(i)
    cand_dists = distance(np.repeat(np.arange(rows), n_cand), cand.ravel()).reshape(
        rows, n_cand
    )
    return ids, dists, cand, cand_dists, distance


_merge_cases = dict(
    seed=st.integers(0, 100_000),
    rows=st.integers(1, 5),
    k=st.integers(1, 10),
    n_cand=st.integers(0, 14),
    universe=st.sampled_from([3, 12, 2**31 - 1]),
    tail_copies=st.booleans(),
)


class TestNnDescentMergeProperties:
    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(**_merge_cases)
    def test_packed_keys_match_lexsort_oracle(
        self, seed, rows, k, n_cand, universe, tail_copies
    ):
        ids, dists, cand, cand_d, distance = _merge_inputs(
            seed, rows, k, n_cand, universe, tail_copies
        )
        got = _merge_candidates(ids, dists, cand, k, distance)
        want = _lexsort_merge_oracle(ids, dists, cand, cand_d, k)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            # == on values: a -0.0 comes back as +0.0 (documented).
            np.testing.assert_array_equal(g, w)

    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(**_merge_cases)
    def test_bitwise_against_score_every_candidate_oracle(
        self, seed, rows, k, n_cand, universe, tail_copies
    ):
        ids, dists, cand, cand_d, distance = _merge_inputs(
            seed, rows, k, n_cand, universe, tail_copies
        )
        new_ids, new_dists, entered = _merge_candidates(ids, dists, cand, k, distance)
        want_ids, want_dists, want_entered = oracle.merge_candidates(
            ids, dists, cand, cand_d, k
        )
        np.testing.assert_array_equal(new_ids, want_ids)
        np.testing.assert_array_equal(_bits(new_dists), _bits(want_dists))
        np.testing.assert_array_equal(entered, want_entered)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(**_merge_cases)
    def test_each_fresh_pair_is_scored_once(
        self, seed, rows, k, n_cand, universe, tail_copies
    ):
        ids, dists, cand, _, _ = _merge_inputs(seed, rows, k, n_cand, universe, tail_copies)
        calls: list = []
        _merge_candidates(ids, dists, cand, k, _pool_distance(seed, calls))
        fresh = {
            (r, c) for r in range(rows) for c in cand[r].tolist() if c not in ids[r]
        }
        assert sorted(calls) == sorted(fresh)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 12))
    def test_rows_sorted_and_unique(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = 3
        table = rng.random((rows, 100)).astype(np.float32)
        ids = np.stack([rng.permutation(100)[:k] for _ in range(rows)]).astype(np.int64)
        dists = np.take_along_axis(table, ids, axis=1)
        cand = rng.integers(0, 100, size=(rows, k)).astype(np.int64)
        new_ids, new_dists, _ = _merge_candidates(
            ids, dists, cand, k, lambda r, i: table[r, i]
        )
        for row_ids, row_dists in zip(new_ids, new_dists):
            finite = np.isfinite(row_dists)
            assert (np.diff(row_dists[finite]) >= 0).all()
            assert len(np.unique(row_ids[finite])) == finite.sum()


class TestReverseSampleProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 40),
        k=st.integers(1, 8),
        take=st.integers(1, 10),
    )
    def test_bitwise_against_scalar_oracle(self, seed, n, k, take):
        """Any id block: self ids, repeats and nodes nobody lists."""
        ids = np.random.default_rng(seed).integers(0, n, size=(n, k), dtype=np.int64)
        got = _reverse_samples(ids, take, np.random.default_rng(seed + 1))
        want = oracle.reverse_samples(ids, take, np.random.default_rng(seed + 1))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@st.composite
def knn_build_cases(draw):
    """A dataset of ``k + 2`` to ~300 rows, on a coarse grid half the time
    so duplicate vectors and distance ties are common, at fp32 or fp16."""
    k = draw(st.integers(1, 16))
    n = draw(st.integers(k + 2, 300))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    else:
        data = rng.standard_normal((n, dim)).astype(np.float32)
    config = GraphBuildConfig(
        metric=draw(st.sampled_from(["sqeuclidean", "inner_product"])),
        nn_descent_iterations=draw(st.integers(1, 5)),
        nn_descent_sample_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        nn_descent_termination_delta=draw(st.sampled_from([0.0, 0.01, 0.2])),
        seed=draw(st.integers(0, 1000)),
    )
    return data.astype(draw(st.sampled_from(["float32", "float16"]))), k, config


class TestBlockedNnDescentProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        case=knn_build_cases(),
        # One row, a few rows, whole-N blocks.
        block_bytes=st.sampled_from([1, 1 << 12, 1 << 14, 1 << 62]),
    )
    def test_bitwise_against_whole_round_oracle(self, case, block_bytes):
        """Expanding and merging a round one row block at a time builds the
        whole-N round's graph, distances, round count and work counter."""
        data, k, config = case
        with mock.patch.object(nn_descent, "_ROUND_BLOCK_BYTES", block_bytes):
            got = nn_descent.build_knn_graph(data, k, config)
        want = oracle.build_knn_graph(data, k, config)
        np.testing.assert_array_equal(got.graph.neighbors, want.graph.neighbors)
        np.testing.assert_array_equal(_bits(got.distances), _bits(want.distances))
        assert got.iterations == want.iterations
        assert got.distance_computations == want.distance_computations


class TestReverseEdgeMergeProperties:
    @settings(max_examples=2 * MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 30),
        d=st.integers(1, 8),
        orphans=st.integers(0, 3),
    )
    def test_bitwise_against_per_node_oracle(self, seed, n, d, orphans):
        """Random rows with self loops and repeated ids; the first
        ``orphans`` nodes get no in-edges at all."""
        d = min(d, n - 1)
        orphans = min(orphans, n - 1)
        rng = np.random.default_rng(seed)
        rows = rng.integers(orphans, n, size=(n, d)).astype(np.uint32)
        pruned = FixedDegreeGraph(rows)
        got = merge_reverse_edges(pruned, rng=np.random.default_rng(seed))
        want = oracle.merge_reverse_edges(pruned, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(got.neighbors, want.neighbors)

    def test_both_lists_dry_matches_oracle(self):
        """The graph of ``test_both_lists_dry_on_a_reverse_slot_terminates``:
        node 1's lists run dry on a reverse slot and it takes the random
        fill."""
        rows = np.array(
            [[5, 4, 3, 1], [2, 0, 0, 0], [1, 5, 4, 6], [3, 4, 6, 5],
             [4, 3, 3, 6], [1, 5, 4, 0], [2, 6, 3, 0]],
            dtype=np.uint32,
        )
        for seed in range(8):
            got = merge_reverse_edges(FixedDegreeGraph(rows), rng=np.random.default_rng(seed))
            want = oracle.merge_reverse_edges(
                FixedDegreeGraph(rows), rng=np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(got.neighbors, want.neighbors)


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
        from tests.test_batch_search import dense_merge

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
        out_ids, out_d = dense_merge(
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


def _lexsort_rows_oracle(topm_ids, topm_dists, cand_ids, cand_dists, m):
    """The two-key ``lexsort`` + two ``take_along_axis`` merge the dense
    backend ran before it packed keys, kept as the packed merge's oracle."""
    dists = np.concatenate([topm_dists, cand_dists], axis=1)
    ids = np.concatenate([topm_ids, cand_ids], axis=1)
    ids = np.where(np.isinf(dists), INDEX_MASK, ids)
    order = np.lexsort((ids & INDEX_MASK, dists), axis=1)[:, :m]
    return (
        np.take_along_axis(ids, order, axis=1),
        np.take_along_axis(dists, order, axis=1),
    )


def _stable_first_occurrence_oracle(ids):
    """Stable ``argsort`` + ``take_along_axis`` + ``put_along_axis``: what
    ``_first_occurrence_rows`` did before its single-key sort."""
    order = np.argsort(ids, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(ids, order, axis=1)
    first_sorted = np.ones(ids.shape, dtype=bool)
    first_sorted[:, 1:] = sorted_ids[:, 1:] != sorted_ids[:, :-1]
    first = np.empty(ids.shape, dtype=bool)
    np.put_along_axis(first, order, first_sorted, axis=1)
    return first


def _stable_pick_oracle(selectable, p):
    """The stable-``argsort`` parent pick ``_pick_parents`` replaced."""
    order = np.argsort(~selectable, axis=1, kind="stable")[:, :p]
    return order, np.take_along_axis(selectable, order, axis=1)


class TestPackedTraversalKernels:
    """The engine's single-key sorts against the stable multi-key code
    they replaced (oracles above)."""

    #: Few distinct values, so ties between different ids are the rule
    #: (duplicate vectors): both zeros, negatives (inner product), extremes.
    POOL = np.array(
        [-0.0, 0.0, -3.5, -1e-30, 1e-30, 0.25, 0.25, 7.0,
         np.finfo(np.float32).max, -np.finfo(np.float32).max],
        dtype=np.float32,
    )

    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        rows=st.integers(1, 4),
        m=st.integers(1, 12),
        n_cand=st.integers(0, 20),
        universe=st.sampled_from([40, int(INDEX_MASK)]),
        stale_rate=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_packed_merge_matches_lexsort_oracle(
        self, seed, rows, m, n_cand, universe, stale_rate
    ):
        """float32 inputs take the packed arm, the same values as float64
        the lexsort arm; both must be the oracle's answer — ids with their
        ``PARENT_FLAG``, distances, dummies in every ``+inf`` slot (a high
        ``stale_rate`` leaves fewer than ``m`` finite entries)."""
        from repro.core.graph import PARENT_FLAG
        from tests.test_batch_search import dense_merge

        rng = np.random.default_rng(seed)
        total = m + n_cand
        ids = np.stack(
            [rng.choice(universe, size=total, replace=False) for _ in range(rows)]
        ).astype(np.uint32)
        dists = rng.choice(self.POOL, size=(rows, total))
        # Non-first visits: +inf carrying real (even repeated) ids.
        stale = rng.random((rows, total)) < stale_rate
        dists[stale] = np.inf
        ids[stale] = rng.integers(0, universe, int(stale.sum()))
        ids[:, :m] |= np.where(rng.random((rows, m)) < 0.4, PARENT_FLAG, 0).astype(
            np.uint32
        )
        want_ids, want_d = _lexsort_rows_oracle(
            ids[:, :m], dists[:, :m].astype(np.float64),
            ids[:, m:], dists[:, m:].astype(np.float64), m,
        )
        for dtype in (np.float32, np.float64):
            got_ids, got_d = dense_merge(
                ids[:, :m], dists[:, :m].astype(dtype),
                ids[:, m:], dists[:, m:].astype(dtype), m,
            )
            assert got_ids.dtype == np.uint32 and got_d.dtype == dtype
            np.testing.assert_array_equal(got_ids, want_ids)
            # == on values: the packed arm returns -0.0 as +0.0 (documented).
            np.testing.assert_array_equal(got_d, want_d)
        kept = want_ids != INDEX_MASK
        np.testing.assert_array_equal(np.isfinite(want_d), kept)

    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        rows=st.integers(1, 5),
        width=st.sampled_from([1, 2, 3, 7, 8, 33, 96]),
        universe=st.sampled_from([1, 3, 50, int(INDEX_MASK) + 1]),
        dtype=st.sampled_from([np.uint32, np.int64]),
    )
    def test_first_occurrence_matches_stable_argsort(
        self, seed, rows, width, universe, dtype
    ):
        """Width 1, non-power-of-two widths, ids up to ``INDEX_MASK``, and
        all-equal rows (``universe`` 1)."""
        from repro.core.traversal import _first_occurrence_rows

        rng = np.random.default_rng(seed)
        ids = rng.integers(0, universe, size=(rows, width)).astype(dtype)
        ids[0, -1] = universe - 1  # the largest id is always present
        got = _first_occurrence_rows(ids)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, _stable_first_occurrence_oracle(ids))

    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        rows=st.integers(1, 5),
        width=st.sampled_from([1, 4, 5, 32, 100]),
        p=st.sampled_from([1, 2, 4]),
        rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_parent_pick_matches_stable_argsort(self, seed, rows, width, p, rate):
        """Low ``rate`` leaves rows with fewer selectable entries than
        ``search_width``: the fill-up positions and their ``picked=False``
        must match too (they decide which stand-in lanes are gathered)."""
        from repro.core.traversal import _pick_parents

        rng = np.random.default_rng(seed)
        selectable = rng.random((rows, width)) < rate
        positions, picked = _pick_parents(selectable, p)
        want_positions, want_picked = _stable_pick_oracle(selectable, p)
        np.testing.assert_array_equal(positions, want_positions)
        np.testing.assert_array_equal(picked, want_picked)


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


@st.composite
def beam_cases(draw):
    """A ragged graph with empty rows, repeated neighbours and self-loops,
    split into several components, plus duplicate-laden seeds and a ``k``
    that may exceed what the seeds can reach."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 40))
    components = draw(st.integers(1, 3))
    members = [np.flatnonzero(np.arange(n) % components == c) for c in range(components)]
    rows = []
    for node in range(n):
        pool = members[node % components]
        degree = int(rng.integers(0, 7))
        rows.append(rng.choice(pool, size=degree, replace=True).astype(np.int64))
    # Continuous data in >= 2 dims, so no two distances tie: a tie is the
    # one place the scalar loop (rejects a candidate equal to the worst
    # kept) and the merge (breaks it by id) may differ.  In one dimension
    # every cosine distance is +-1.
    dim = draw(st.integers(2, 8))
    batch = draw(st.integers(1, 6))
    beam = draw(st.integers(1, 16))
    return {
        "rows": rows,
        "data": rng.standard_normal((n, dim)).astype(np.float32),
        "queries": rng.standard_normal((batch, dim)).astype(np.float32),
        "seeds": rng.integers(0, n, size=(batch, draw(st.integers(1, 4)))),
        "beam": beam,
        "k": draw(st.integers(1, beam)),
        "metric": draw(st.sampled_from(METRICS)),
    }


class TestBatchedBeamSearchProperties:
    @settings(max_examples=80, deadline=None)
    @given(case=beam_cases())
    def test_engine_batch_equals_scalar_rows(self, case):
        """The engine-backed batch search is per-row ``beam_search``: ids,
        distance bits and counters."""
        from repro.baselines.beam import BeamCounters, batched_beam_search
        from tests.oracles.beam import beam_search

        data, rows, seeds, queries = (case[key] for key in ("data", "rows", "seeds", "queries"))
        k, beam, metric = case["k"], case["beam"], case["metric"]
        ids, dists, counters = batched_beam_search(
            data, rows, queries, k, beam, seeds, metric
        )
        scalar = BeamCounters()
        for row, query in enumerate(queries):
            want_ids, want_dists = beam_search(
                data, rows, query, k, beam, seeds[row], metric, scalar
            )
            np.testing.assert_array_equal(ids[row], want_ids)
            np.testing.assert_array_equal(_bits(dists[row]), _bits(want_dists))
        assert (counters.distance_computations, counters.hops, counters.queries) == (
            scalar.distance_computations, scalar.hops, scalar.queries
        )


@st.composite
def layered_cases(draw):
    """HNSW layers over continuous data: nested node sets (node ``i`` on
    layers ``0..level[i]``), ragged rows with empty ones, repeats and
    self-loops, and the entry node on the top layer."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(2, 40))
    levels = np.minimum(rng.geometric(0.5, n) - 1, 3)
    levels[draw(st.integers(0, n - 1))] = top = int(levels.max())
    layers = []
    for level in range(top + 1):
        members = np.flatnonzero(levels >= level)
        layers.append({
            int(node): rng.choice(members, size=int(rng.integers(0, 6))).astype(np.int64)
            for node in members
        })
    dim = draw(st.integers(2, 8))  # continuous, >= 2 dims: no distance ties
    return {
        "data": rng.standard_normal((n, dim)).astype(np.float32),
        "queries": rng.standard_normal((draw(st.integers(1, 6)), dim)).astype(np.float32),
        "layers": layers,
        "entry": int(np.flatnonzero(levels == top)[0]),
        "metric": draw(st.sampled_from(METRICS)),
        "k": draw(st.integers(1, 4)),
    }


class TestHnswDescentProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=layered_cases())
    def test_engine_descent_equals_greedy_hill_climb(self, case):
        """``HnswIndex.search`` descends the upper layers on the engine at
        beam 1 and lands, per query, on the entry point the greedy
        hill-climb reaches: its base-layer ids and distance bits equal a
        base-layer search entered there."""
        from repro.baselines import BeamCounters, HnswIndex
        from repro.baselines.beam import batched_beam_search

        data, layers, metric, k = (case[key] for key in ("data", "layers", "metric", "k"))
        index = HnswIndex(data, m=2, metric=metric)
        index.layers, index.entry_point, index._built = layers, case["entry"], True
        index.max_level = len(layers) - 1
        ids, dists, _ = index.search(case["queries"], k, ef=4)
        entries = []
        for query in case["queries"]:
            entry = case["entry"]
            for level in range(index.max_level, 0, -1):
                entry = beam_oracle.greedy_closest(
                    data, layers[level], query, entry, metric, BeamCounters()
                )
            entries.append([entry])
        base = [layers[0][node] for node in range(len(data))]
        want_ids, want_dists, _ = batched_beam_search(
            data, base, case["queries"], k, max(4, k), np.array(entries), metric
        )
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(_bits(dists), _bits(want_dists))


@st.composite
def small_build_cases(draw):
    """A small dataset, across the HNSW insertion batch cap, in which some
    rows repeat others exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(2, 150))
    data = rng.standard_normal((n, draw(st.integers(2, 6)))).astype(np.float32)
    copies = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    data[copies] = data[rng.integers(0, n, int(copies.sum()))]
    return {
        "data": data,
        "metric": draw(st.sampled_from(["sqeuclidean", "inner_product"])),
        "m": draw(st.integers(2, 6)),
        "ef": draw(st.integers(2, 24)),
        "degree": draw(st.integers(1, 8)),
        "shard_size": draw(st.sampled_from([1, 8, 32, 512])),
        "seed": draw(st.integers(0, 1000)),
    }


def _assert_rows_well_formed(rows, members, bound):
    """No self-loop, no repeated id, at most ``bound`` ids, all members."""
    for node, row in rows:
        row = np.asarray(row).tolist()
        assert node not in row, (node, row)
        assert len(set(row)) == len(row) <= bound, (node, row)
        assert set(row) <= members, (node, row)


class TestSmallBuildProperties:
    @settings(max_examples=30, deadline=None)
    @given(case=small_build_cases())
    def test_hnsw_graph_is_well_formed(self, case):
        """Batched insertion keeps every layer's rows within ``m`` (``2m``
        at the base) with no self-loop or repeat, gives every base-layer
        node but the entry an in-edge, and draws the levels the
        one-at-a-time build drew."""
        from repro.baselines import HnswIndex

        data, m, seed = case["data"], case["m"], case["seed"]
        index = HnswIndex(data, m=m, ef_construction=case["ef"], metric=case["metric"],
                          seed=seed).build()
        rng = np.random.default_rng(seed)
        levels = np.array([int(-math.log(max(rng.random(), 1e-12)) / math.log(m))
                           for _ in range(len(data))])
        assert index.max_level == levels.max() == len(index.layers) - 1
        assert index.entry_point == int(np.argmax(levels))
        for level, layer in enumerate(index.layers):
            members = set(np.flatnonzero(levels >= level).tolist())
            assert set(layer) == members
            _assert_rows_well_formed(layer.items(), members, 2 * m if level == 0 else m)
        in_degree = np.bincount(
            np.concatenate([np.empty(0, np.int64), *index.layers[0].values()]),
            minlength=len(data),
        )
        assert set(np.flatnonzero(in_degree == 0).tolist()) <= {index.entry_point}

    @settings(max_examples=30, deadline=None)
    @given(case=small_build_cases())
    def test_ggnn_graph_is_well_formed(self, case):
        """Rows of exactly ``degree`` distinct ids, no self-loop, and an
        in-edge for every node."""
        from repro.baselines import GgnnIndex

        data = case["data"]
        index = GgnnIndex(data, degree=case["degree"], shard_size=case["shard_size"],
                          refine_beam=8, metric=case["metric"], seed=case["seed"]).build()
        rows = index.graph.neighbors
        assert rows.shape == (len(data), min(case["degree"], len(data) - 1))
        _assert_rows_well_formed(enumerate(rows), set(range(len(data))), rows.shape[1])
        assert (np.bincount(rows.ravel().astype(np.int64), minlength=len(data)) > 0).all()


@st.composite
def occlusion_cases(draw):
    """A block of candidate rows over values on a coarse grid, so duplicate
    vectors (zero-length directions) and distance ties are common; pools
    run from empty to every other node, degree from 1."""
    n = draw(st.integers(2, 20))
    dim = draw(st.integers(1, 4))
    elements = st.one_of(st.integers(-2, 2).map(float), st.floats(-2, 2, width=16))
    data = draw(arrays(np.float32, (n, dim), elements=elements))
    data = data.astype(draw(st.sampled_from(["float32", "float16"])))
    metric = draw(st.sampled_from(["sqeuclidean", "inner_product"]))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    pools = []
    for node in nodes:
        others = [i for i in range(n) if i != node]
        pool = np.array(draw(st.lists(st.sampled_from(others), unique=True)), dtype=np.int64)
        dists = distances_to_query(data, data[node], pool, metric)
        order = np.lexsort((pool, dists))
        pools.append((pool[order], dists[order]))
    return {
        "data": data, "metric": metric, "nodes": nodes, "pools": pools,
        "degree": draw(st.integers(1, 6)),
        # NSSG's 60 degrees and 30, plus thresholds that grid angles hit exactly.
        "cos_threshold": draw(st.sampled_from(
            [math.cos(math.radians(60.0)), math.cos(math.radians(30.0)), 0.0, 0.5]
        )),
    }


_RIGHT_ANGLE = np.array([[0, 0], [1, 0], [0, 1], [0, 1], [2, 0]], dtype=np.float32)


class TestOcclusionPruneProperties:
    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    @given(case=occlusion_cases(), rule=st.sampled_from(["rng", "angle"]))
    @example(  # a right angle at exactly cos 0, a collinear pair, a duplicate
        case={
            "data": _RIGHT_ANGLE, "metric": "sqeuclidean", "nodes": [0, 1, 2], "degree": 3,
            "pools": [
                (np.array([1, 2, 3, 4]), np.array([1, 1, 1, 4], dtype=np.float32)),
                (np.array([0, 4, 2, 3]), np.array([1, 1, 2, 2], dtype=np.float32)),
                (np.array([3, 0, 1, 4]), np.array([0, 1, 2, 5], dtype=np.float32)),
            ],
            "cos_threshold": 0.0,
        },
        rule="angle",
    )
    def test_block_filter_equals_scalar_oracles(self, case, rule):
        """Kept ids, their order and the charges equal the scalar filter
        of the rule, row by row; HNSW's select (filter, then nearest-first
        fill) equals the whole Algorithm 4 heuristic."""
        from repro.baselines.hnsw import HnswIndex

        data, metric, nodes, pools, degree = (
            case[key] for key in ("data", "metric", "nodes", "pools", "degree")
        )
        width = max(len(pool) for pool, _ in pools)
        ids = np.full((len(pools), width), -1, dtype=np.int64)
        dists = np.full((len(pools), width), np.inf, dtype=np.float32)
        for row, (pool, pool_dists) in enumerate(pools):
            ids[row, : len(pool)], dists[row, : len(pool)] = pool, pool_dists
        kept, charges = occlusion_prune(
            data, np.array(nodes), ids, dists, degree, rule, metric=metric,
            cos_threshold=case["cos_threshold"],
        )
        assert kept.shape == (len(pools), degree)
        hnsw = HnswIndex(data, metric=metric)
        selected = hnsw._select(nodes, ids, dists, degree) if rule == "rng" else None
        for row, (node, (pool, pool_dists)) in enumerate(zip(nodes, pools)):
            stats = SimpleNamespace(distance_computations=0)
            if rule == "angle":
                want = prune_oracle.angular_prune(
                    data, node, pool, degree, case["cos_threshold"], stats
                )
            else:
                tuples = list(zip(pool_dists.tolist(), pool.tolist()))
                want = [c for _, c in prune_oracle.select_heuristic(
                    data, data[node], tuples, degree, stats, metric, fill=False
                )]
                full = prune_oracle.select_heuristic(data, data[node], tuples, degree, None, metric)
                assert selected[row].tolist() == [c for _, c in full]
            assert kept[row][kept[row] >= 0].tolist() == want
            assert (kept[row][len(want):] == -1).all()
            assert charges[row] == stats.distance_computations
        if rule == "rng":
            assert hnsw.build_stats.distance_computations == charges.sum()
