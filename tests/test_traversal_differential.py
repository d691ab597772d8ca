"""Generated differential tests for the traversal engine's visited seam.

The stepping loop (:meth:`TraversalEngine._traverse`) serves two visited
backends and is shadowed by the sequential specification
(:func:`repro.core.search._greedy_core`).  Pinned fixtures cover a handful
of shapes; these tests drive *generated* shapes — small and saturating
hash tables, forgettable resets, ``min_iterations`` re-seeding, partial
parent picks (``search_width`` > unparented entries), multi-CTA worker
passes, filters, duplicate-heavy adjacency — through:

* reference mode's two dispatch arms (hash slab forced vs scalar spec
  forced): bitwise ids, distances and every counter;
* fast vs reference under the documented parity regime (standard table
  large enough never to saturate, ``min_iterations`` 0, no filter): ids,
  distances and the 14 shared counters equal, ``hash_probes`` the one
  modelled difference (a flat two per lookup);
* fast vs reference on walkable kNN graphs under the Table II default
  (small forgettable) table: padding is trailing-only and recall agrees
  within ε.  (Filtered search is compared arm-to-arm only: the reference
  keeps filtered nodes as infinite-distance parents and walks through
  them, the dense backend by design does not, so their recall under a
  selective filter legitimately differs.)
* fast mode against the dense step it replaced (``tests/oracles/
  traversal.py``): bitwise ids, distances and every counter, also where
  the parity regime cannot reach — filters, given seeds, fp16 and
  float64 storage, every metric, ``max_iterations`` cut-offs.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.traversal as traversal
from repro.baselines.bruteforce import exact_search
from repro.core.config import HashTableConfig, SearchConfig
from repro.core.graph import INDEX_MASK, FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.metrics import recall
from repro.core.traversal import TraversalEngine

from tests.oracles import traversal as oracle
from tests.test_batch_search import PARITY_COUNTERS

MAX_EXAMPLES = 25
RECALL_EPSILON = 0.1


def _knn_graph(data: np.ndarray, degree: int) -> np.ndarray:
    gram = data @ data.T
    sq = np.diag(gram)
    dists = sq[:, None] - 2.0 * gram + sq[None, :]
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")[:, :degree]


@st.composite
def indexes(draw, searchable=False):
    """A small index: random or exact-kNN adjacency, optionally with
    every neighbor listed twice (intra-gather duplicates on every step).

    ``searchable`` narrows to graphs a greedy search can actually walk
    (kNN edges, degree >= 8, enough nodes), for recall comparisons.
    """
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(64 if searchable else 8, 400))
    dim = draw(st.integers(2, 12))
    degree = min(draw(st.sampled_from([8, 16] if searchable else [2, 4, 8, 16])), n - 1)
    knn = searchable or draw(st.booleans())
    duplicated = not searchable and draw(st.booleans())
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    distinct = max(1, degree // 2) if duplicated else degree
    if knn:
        neighbors = _knn_graph(data.astype(np.float64), distinct)
    else:
        neighbors = rng.integers(0, n, size=(n, distinct))
    if duplicated:
        neighbors = np.repeat(neighbors, 2, axis=1)
    index = CagraIndex(data, FixedDegreeGraph(neighbors.astype(np.uint32)))
    queries = rng.standard_normal((draw(st.integers(1, 6)), dim)).astype(np.float32)
    return index, queries


@st.composite
def filters(draw, n):
    keep = draw(st.sampled_from([None, 0.5, 0.1]))
    if keep is None:
        return None
    mask = np.random.default_rng(draw(st.integers(0, 2**16))).random(n) < keep
    mask[0] = True  # never exclude every node
    return mask


hash_tables = st.one_of(
    st.none(),
    st.builds(
        HashTableConfig,
        kind=st.just("standard"),
        log2_size=st.integers(4, 10),
    ),
    st.builds(
        HashTableConfig,
        kind=st.just("forgettable"),
        log2_size=st.integers(4, 8),
        reset_interval=st.integers(1, 3),
    ),
)


def _padding_is_trailing(indices: np.ndarray) -> bool:
    pad = indices == INDEX_MASK
    return bool((pad[:, :-1] <= pad[:, 1:]).all())


class TestReferenceArmsAgree:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        case=indexes(),
        data=st.data(),
        itopk=st.integers(4, 48),
        search_width=st.integers(1, 3),
        max_iterations=st.sampled_from([0, 1, 3, 8]),
        min_iterations=st.integers(0, 6),
        algo=st.sampled_from(["single_cta", "multi_cta"]),
        cta_per_query=st.sampled_from([0, 2, 3]),
        hash_table=hash_tables,
        seed=st.integers(0, 1000),
    )
    def test_slab_arm_equals_scalar_arm(
        self, case, data, itopk, search_width, max_iterations, min_iterations,
        algo, cta_per_query, hash_table, seed,
    ):
        index, queries = case
        if algo == "multi_cta" and hash_table and hash_table.kind != "standard":
            hash_table = None  # multi-CTA only takes the device-memory table
        config = SearchConfig(
            itopk=itopk,
            search_width=search_width,
            max_iterations=max_iterations,
            min_iterations=min_iterations,
            algo=algo,
            cta_per_query=cta_per_query,
            hash_table=hash_table,
            seed=seed,
        )
        k = data.draw(st.integers(1, min(itopk, 10)))
        mask = data.draw(filters(index.size))
        with mock.patch.object(traversal, "_SCALAR_REFERENCE_ROWS", 0):
            slab = index.search(queries, k, config, filter_mask=mask)
        with mock.patch.object(traversal, "_SCALAR_REFERENCE_ROWS", 10**9):
            scalar = index.search(queries, k, config, filter_mask=mask)
        np.testing.assert_array_equal(slab.indices, scalar.indices)
        np.testing.assert_array_equal(slab.distances, scalar.distances)
        assert slab.report.as_dict() == scalar.report.as_dict()


class TestFastAgainstReference:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        case=indexes(),
        itopk=st.integers(4, 48),
        search_width=st.integers(1, 3),
        max_iterations=st.sampled_from([0, 1, 3, 8]),
        seed=st.integers(0, 1000),
    )
    def test_counter_parity_regime(
        self, case, itopk, search_width, max_iterations, seed
    ):
        index, queries = case
        fast_config = SearchConfig(
            itopk=itopk,
            search_width=search_width,
            max_iterations=max_iterations,
            hash_table=HashTableConfig(kind="standard", log2_size=16),
            seed=seed,
        )
        k = min(itopk, 10)
        fast = index.search_fast(queries, k, fast_config)
        ref = index.search(queries, k, fast_config.with_overrides(algo="single_cta"))
        np.testing.assert_array_equal(fast.indices, ref.indices)
        np.testing.assert_array_equal(fast.distances, ref.distances)
        fast_counters, ref_counters = fast.report.as_dict(), ref.report.as_dict()
        for name in PARITY_COUNTERS:
            assert fast_counters[name] == ref_counters[name], name
        assert fast_counters["hash_probes"] == 2 * fast_counters["hash_lookups"]
        assert ref_counters["hash_probes"] >= ref_counters["hash_lookups"]
        assert _padding_is_trailing(fast.indices)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        case=indexes(searchable=True),
        itopk=st.integers(16, 48),
        search_width=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_recall_within_epsilon(self, case, itopk, search_width, seed):
        """Table II default (small forgettable) table vs the exact dense
        one: forgetting costs recomputation, not answers."""
        index, queries = case
        config = SearchConfig(itopk=itopk, search_width=search_width, seed=seed)
        truth, _ = exact_search(index.dataset, queries, 10)
        fast = index.search_fast(queries, 10, config)
        ref = index.search(queries, 10, config.with_overrides(algo="single_cta"))
        assert ref.report.hash_resets > 0
        assert _padding_is_trailing(fast.indices)
        assert _padding_is_trailing(ref.indices)
        fast_recall = recall(fast.indices, truth)
        ref_recall = recall(ref.indices, truth)
        assert abs(fast_recall - ref_recall) <= RECALL_EPSILON, (
            fast_recall, ref_recall
        )


class TestFastAgainstOracle:
    """The lean dense step (packed top-M kept sorted across steps, first
    visits deduplicated among fresh lanes only, rows retired on the step
    they finish) against the step it replaced, bitwise."""

    @settings(max_examples=2 * MAX_EXAMPLES, deadline=None)
    @given(
        case=indexes(),
        data=st.data(),
        storage=st.sampled_from(["fp32", "fp16", "float64"]),
        metric=st.sampled_from(["sqeuclidean", "inner_product", "cosine"]),
        itopk=st.integers(1, 48),
        search_width=st.integers(1, 4),
        max_iterations=st.sampled_from([0, 1, 2, 5]),
        seed=st.integers(0, 1000),
    )
    def test_bitwise_equal_to_the_replaced_step(
        self, case, data, storage, metric, itopk, search_width, max_iterations, seed
    ):
        index, queries = case
        itopk = max(itopk, search_width)  # both steps fail on a shorter list
        if data.draw(st.booleans()):
            queries = queries[:1]  # batch 1
        dataset = index.dataset.astype(np.float64) if storage == "float64" else index.dataset
        engine = TraversalEngine(
            dataset, index.graph, metric=metric,
            precision="fp16" if storage == "fp16" else "fp32",
        )
        config = SearchConfig(
            itopk=itopk, search_width=search_width, max_iterations=max_iterations, seed=seed
        )
        k = data.draw(st.sampled_from(sorted({1, min(10, itopk), itopk, itopk + 3})))
        mask = data.draw(filters(index.size))
        seeds = None
        if data.draw(st.booleans()):
            width = data.draw(st.integers(1, 8))
            seeds = np.random.default_rng(seed).integers(0, index.size, (len(queries), width))
            seeds[:, -1] = seeds[:, 0]  # a duplicate entry point
        got = engine.search(queries, k, config, mode="fast", filter_mask=mask, seeds=seeds)
        want = oracle.search_fast(engine, queries, k, config, filter_mask=mask, seeds=seeds)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.report.as_dict() == want.report.as_dict()
        # Plain ints, as before: a numpy scalar counter breaks JSON reports.
        assert {k: type(v) for k, v in got.report.as_dict().items()} == {
            k: type(v) for k, v in want.report.as_dict().items()
        }
        assert _padding_is_trailing(got.indices)
