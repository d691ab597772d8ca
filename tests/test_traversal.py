"""The array-parallel traversal engine (:mod:`repro.core.traversal`).

Acceptance suite for the hot-loop unification:

* all five production paths (reference-auto, fast, forced single-CTA,
  forced multi-CTA, sharded-fast) stay bitwise identical to the
  regression fixture :func:`_cagra_regression_outputs` recorded — ids,
  distances, and **every** ``CostReport`` counter the fixture pins;
* both reference dispatch arms (the scalar executable specification for
  small batches, the array-parallel slab for large ones) produce the
  same pinned results when forced onto the other arm's batch shape;
* fp16 dataset storage keeps recall within 0.01 of fp32 with mostly
  stable ids, halves the stamped storage width, and is deterministic;
* the chunk-size heuristic charges what a live row keeps resident (an
  fp16 engine never gets *smaller* chunks than fp32), and a chunk boundary
  inside the batch shows in no output and no counter;
* step ③ gathers exactly ``report.distance_computations`` vectors and its
  flat-pair distances are bitwise the full-slab ones;
* malformed queries (wrong dim, NaN/inf) are rejected typed and early at
  the one engine entry, on every path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.traversal as traversal
from repro.baselines.bruteforce import exact_search
from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.index import CagraIndex
from repro.core.metrics import recall
from repro.core.traversal import PRECISIONS, TraversalEngine

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "cagra_regression.npz"
)


CONFIG = SearchConfig(itopk=64, seed=0)

#: The ``CostReport`` counters the regression fixture pins.
COUNTER_NAMES = (
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
    "hash_probes",
    "hash_insertions",
    "hash_resets",
    "random_inits",
)


def _regression_case():
    """600 x 24 Gaussian rows, 32 queries, a degree-16 graph."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((600, 24)).astype(np.float32)
    queries = rng.standard_normal((32, 24)).astype(np.float32)
    index = CagraIndex.build(data, GraphBuildConfig(graph_degree=16, seed=0))
    return data, queries, index


def _counters(result, names) -> np.ndarray:
    report = getattr(result, "report", None)
    source = result.counters if report is None else report.as_dict()
    return np.array([source[name] for name in names], dtype=np.int64)


def _cagra_regression_outputs() -> dict[str, np.ndarray]:
    """Ids, distances and :data:`COUNTER_NAMES` of the five production
    paths on :func:`_regression_case`.

    Re-record (only ever from a commit whose search is trusted) with
    ``np.savez_compressed(FIXTURE, **_cagra_regression_outputs())``.
    """
    from repro.core.sharding import ShardedCagraIndex

    data, queries, index = _regression_case()
    sharded = ShardedCagraIndex.build(
        data, 3, GraphBuildConfig(graph_degree=16, seed=0)
    )
    try:
        results = {
            "ref": index.search(queries, 10, config=CONFIG),
            "fast": index.search_fast(queries, 10, config=CONFIG),
            "single": index.search(
                queries, 10, config=CONFIG.with_overrides(algo="single_cta")
            ),
            "multi": index.search(
                queries[:1], 10, config=CONFIG.with_overrides(algo="multi_cta")
            ),
            "sharded": sharded.search_fast(queries, 10, config=CONFIG),
        }
    finally:
        sharded.close()
    out = {"counter_names": np.array(COUNTER_NAMES)}
    for prefix, result in results.items():
        out[f"{prefix}_indices"] = result.indices
        out[f"{prefix}_distances"] = result.distances
        out[f"{prefix}_counters"] = _counters(result, COUNTER_NAMES)
    return out


@pytest.fixture(scope="module")
def regression():
    with np.load(FIXTURE) as archive:
        expected = {key: archive[key] for key in archive.files}
    return _regression_case() + (expected,)


def assert_pinned(result, expected, prefix):
    """Bitwise fixture parity: ids, distances, and all pinned counters."""
    np.testing.assert_array_equal(result.indices, expected[f"{prefix}_indices"])
    np.testing.assert_array_equal(
        result.distances, expected[f"{prefix}_distances"]
    )
    names = [str(name) for name in expected["counter_names"]]
    got = _counters(result, names)
    want = expected[f"{prefix}_counters"]
    mismatch = {
        name: (int(g), int(w))
        for name, g, w in zip(names, got, want)
        if g != w
    }
    assert not mismatch, f"{prefix} counter drift: {mismatch}"


class TestFivePathFixtureParity:
    """Every production path, pinned bitwise against the recorded runs."""

    def test_reference_auto(self, regression):
        _, queries, index, expected = regression
        assert_pinned(index.search(queries, 10, config=CONFIG), expected, "ref")

    def test_fast(self, regression):
        _, queries, index, expected = regression
        assert_pinned(
            index.search_fast(queries, 10, config=CONFIG), expected, "fast"
        )

    def test_forced_single_cta(self, regression):
        _, queries, index, expected = regression
        result = index.search(
            queries, 10, config=CONFIG.with_overrides(algo="single_cta")
        )
        assert_pinned(result, expected, "single")

    def test_forced_multi_cta(self, regression):
        _, queries, index, expected = regression
        result = index.search(
            queries[:1], 10, config=CONFIG.with_overrides(algo="multi_cta")
        )
        assert_pinned(result, expected, "multi")

    def test_sharded_fast(self, regression):
        data, queries, _, expected = regression
        from repro.core.sharding import ShardedCagraIndex

        sharded = ShardedCagraIndex.build(
            data, 3, GraphBuildConfig(graph_degree=16, seed=0)
        )
        try:
            result = sharded.search_fast(queries, 10, config=CONFIG)
        finally:
            sharded.close()
        assert_pinned(result, expected, "sharded")


class TestDispatchArms:
    """The reference backend's two arms agree bitwise on either side of
    the latency crossover, so the dispatch threshold is pure policy."""

    def test_slab_arm_on_small_batch(self, regression, monkeypatch):
        """Forcing the array-parallel slab onto a batch-1 multi-CTA query
        reproduces the scalar arm's pinned fixture exactly."""
        _, queries, index, expected = regression
        monkeypatch.setattr(traversal, "_SCALAR_REFERENCE_ROWS", 0)
        result = index.search(
            queries[:1], 10, config=CONFIG.with_overrides(algo="multi_cta")
        )
        assert_pinned(result, expected, "multi")

    def test_scalar_arm_on_large_batch(self, regression, monkeypatch):
        """Forcing the sequential specification onto the batch-32 fixture
        reproduces the slab arm's pinned results exactly."""
        _, queries, index, expected = regression
        monkeypatch.setattr(traversal, "_SCALAR_REFERENCE_ROWS", 10**9)
        assert_pinned(index.search(queries, 10, config=CONFIG), expected, "ref")
        result = index.search(
            queries, 10, config=CONFIG.with_overrides(algo="single_cta")
        )
        assert_pinned(result, expected, "single")

    def test_default_threshold_routes_small_batches_scalar(
        self, regression, monkeypatch
    ):
        _, queries, index, _ = regression
        calls = []
        original = TraversalEngine._scalar_search
        monkeypatch.setattr(
            TraversalEngine,
            "_scalar_search",
            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw),
        )
        index.search(
            queries[:2], 10, config=CONFIG.with_overrides(algo="single_cta")
        )
        assert len(calls) == 2  # one scalar run per query below the threshold
        calls.clear()
        index.search(queries, 10, config=CONFIG.with_overrides(algo="single_cta"))
        assert not calls  # batch 32 goes through the array-parallel slab


class TestLoneVersusBatchedReference:
    """The two reference arms share one distance kernel per metric: on an
    inner-product index a query gets the same ids *and distance bits*
    alone (scalar arm) as inside a batch of 32 (hash slab)."""

    @pytest.mark.parametrize("algo", ["single_cta", "multi_cta"])
    def test_inner_product_lone_equals_batch_row(self, hard_data, algo):
        index = CagraIndex.build(
            hard_data[:600],
            GraphBuildConfig(graph_degree=16, metric="inner_product", seed=1),
        )
        queries = hard_data[600:632]
        config = SearchConfig(itopk=32, seed=5, algo=algo)
        batch = index.search(queries, 10, config=config)
        assert len(queries) >= traversal._SCALAR_REFERENCE_ROWS
        for row in range(len(queries)):
            alone = index.search(queries[row : row + 1], 10, config=config)
            np.testing.assert_array_equal(alone.indices[0], batch.indices[row])
            np.testing.assert_array_equal(
                alone.distances[0].view(np.uint64), batch.distances[row].view(np.uint64)
            )


class TestFp16Storage:
    def test_engine_quantizes_storage_only(self, regression):
        _, _, index, _ = regression
        engine = index.engine("fp16")
        assert engine.data.dtype == np.float16
        assert index.engine().data.dtype == np.float32

    def test_recall_within_0_01_of_fp32(self, regression):
        data, queries, index, _ = regression
        truth, _ = exact_search(data, queries, 10)
        fp32 = index.search_fast(queries, 10, config=CONFIG)
        fp16 = index.search_fast(
            queries, 10, config=CONFIG.with_overrides(precision="fp16")
        )
        r32 = recall(fp32.indices, truth)
        r16 = recall(fp16.indices, truth)
        assert r32 > 0.9
        assert abs(r32 - r16) <= 0.01

    def test_ids_mostly_stable_under_quantization(self, regression):
        _, queries, index, _ = regression
        fp32 = index.search_fast(queries, 10, config=CONFIG)
        fp16 = index.search_fast(
            queries, 10, config=CONFIG.with_overrides(precision="fp16")
        )
        overlap = np.mean(
            [
                len(set(a.tolist()) & set(b.tolist())) / 10.0
                for a, b in zip(fp32.indices, fp16.indices)
            ]
        )
        assert overlap >= 0.9

    def test_fp16_deterministic(self, regression):
        _, queries, index, _ = regression
        config = CONFIG.with_overrides(precision="fp16")
        first = index.search_fast(queries, 10, config=config)
        second = index.search_fast(queries, 10, config=config)
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.distances, second.distances)

    def test_reference_mode_supports_fp16(self, regression):
        data, queries, index, _ = regression
        truth, _ = exact_search(data, queries, 10)
        result = index.search(
            queries, 10, config=CONFIG.with_overrides(precision="fp16")
        )
        assert recall(result.indices, truth) > 0.9

    def test_extras_stamp_precision_and_team(self, regression):
        _, queries, index, _ = regression
        config = CONFIG.with_overrides(precision="fp16", team_size=8)
        result = index.search_fast(queries, 10, config=config)
        assert result.report.extras["precision"] == "fp16"
        assert result.report.extras["dtype_bytes"] == 2
        assert result.report.extras["team_size"] == 8
        fp32 = index.search_fast(queries, 10, config=CONFIG)
        assert fp32.report.extras["precision"] == "fp32"
        assert fp32.report.extras["dtype_bytes"] == 4

    def test_engine_cache_per_precision(self, regression):
        _, _, index, _ = regression
        assert index.engine("fp16") is index.engine("fp16")
        assert index.engine("fp16") is not index.engine("fp32")

    def test_invalid_precision_rejected(self, regression):
        data, _, index, _ = regression
        with pytest.raises(ValueError, match="precision"):
            TraversalEngine(data, index.graph, precision="fp8")
        with pytest.raises(ValueError, match="precision"):
            SearchConfig(precision="fp64")
        assert PRECISIONS == ("fp32", "fp16")


def _search_modes(index):
    """The array-parallel modes: (name, batch -> SearchResult)."""
    half = np.arange(index.size) % 2 == 0
    fp16 = CONFIG.with_overrides(precision="fp16")
    yield "fast", lambda q: index.search_fast(q, 10, config=CONFIG)
    yield "fp16", lambda q: index.search_fast(q, 10, config=fp16)
    yield "filtered", lambda q: index.search_fast(
        q, 10, config=CONFIG, filter_mask=half
    )
    # batch 32 >= _SCALAR_REFERENCE_ROWS: the hash slab, not the scalar spec
    yield "slab-reference", lambda q: index.search(q, 10, config=CONFIG)


class TestChunkHeuristic:
    """The chunk sizer charges what a live row keeps resident; the gathered
    vectors are one constant block, so the storage width does not move it."""

    def test_fp16_rows_at_least_fp32(self, regression):
        _, _, index, _ = regression
        fp32 = index.engine("fp32")
        fp16 = index.engine("fp16")
        for dense in (True, False):
            plan = fp32._resolve_plan(CONFIG, "single_cta", 10, dense=dense)
            assert fp16._chunk_rows(plan) >= fp32._chunk_rows(plan)

    def test_row_bytes_track_resident_state(self, regression):
        """Lanes and top-M scale the model; ``dim`` and the storage dtype do
        not (the vectors are gathered in constant-size blocks), so fp16 and
        fp32 engines chunk alike."""
        _, _, index, _ = regression
        fp32, fp16 = index.engine("fp32"), index.engine("fp16")
        base = fp32._slab_bytes_per_row(16, 64)
        assert fp16._slab_bytes_per_row(16, 64) == base
        assert fp32._slab_bytes_per_row(32, 64) > base
        assert fp32._slab_bytes_per_row(16, 128) > base
        plan = fp32._resolve_plan(CONFIG, "single_cta", 10, dense=True)
        assert fp16._chunk_rows(plan) == fp32._chunk_rows(plan)
        # dense: the visited row (one byte per node) dominates a short row
        assert fp32._chunk_rows(plan) <= traversal._VISITED_BUDGET_BYTES // index.size

    def test_forced_chunking_is_transparent(self, regression, monkeypatch):
        """A tiny budget forces many chunks; totals stay bitwise pinned."""
        _, queries, index, expected = regression
        whole = index.search_fast(queries, 10, config=CONFIG)
        monkeypatch.setattr(traversal, "_VISITED_BUDGET_BYTES", 1)
        chunked = index.search_fast(queries, 10, config=CONFIG)
        np.testing.assert_array_equal(whole.indices, chunked.indices)
        assert whole.report.as_dict() == chunked.report.as_dict()
        assert_pinned(chunked, expected, "fast")

    @pytest.mark.parametrize("mode", ["fast", "fp16", "filtered"])
    def test_chunk_boundary_inside_the_batch(self, regression, monkeypatch, mode):
        """A budget of five rows: chunks of 5 (and a ragged last one of 2)
        split the 32-query batch, and nothing — ids, distances, any
        counter — shows it."""
        _, queries, index, _ = regression
        run = dict(_search_modes(index))[mode]
        whole = run(queries)
        engine = index.engine("fp16" if mode == "fp16" else "fp32")
        plan = engine._resolve_plan(CONFIG, "single_cta", 10, dense=True)
        per_row = traversal._VISITED_BUDGET_BYTES // engine._chunk_rows(plan)
        monkeypatch.setattr(traversal, "_VISITED_BUDGET_BYTES", 5 * per_row + 1)
        sizes = []
        original = TraversalEngine._run_chunk
        monkeypatch.setattr(
            TraversalEngine,
            "_run_chunk",
            lambda self, sub, *a, **kw: sizes.append(len(sub))
            or original(self, sub, *a, **kw),
        )
        chunked = run(queries)
        assert sizes == [5] * 6 + [2]
        np.testing.assert_array_equal(whole.indices, chunked.indices)
        np.testing.assert_array_equal(whole.distances, chunked.distances)
        assert whole.report.as_dict() == chunked.report.as_dict()


class TestWorkProportionalStep:
    """Step ③ gathers and reduces exactly the vectors the report is
    charged for, and gets the bits a full-slab evaluation would."""

    @pytest.mark.parametrize(
        "mode", ["fast", "fp16", "filtered", "slab-reference"]
    )
    def test_gathered_vectors_equal_distance_computations(
        self, regression, monkeypatch, mode
    ):
        _, queries, index, _ = regression
        gathered = []
        original = traversal.gathered_distances

        def counting(data, q, indices, *args, **kwargs):
            gathered.append(np.asarray(indices).size)
            return original(data, q, indices, *args, **kwargs)

        monkeypatch.setattr(traversal, "gathered_distances", counting)
        assert len(queries) >= traversal._SCALAR_REFERENCE_ROWS
        report = dict(_search_modes(index))[mode](queries).report
        assert report.distance_computations > 0
        assert report.skipped_distance_computations > 0
        assert sum(gathered) == report.distance_computations

    @pytest.mark.parametrize("dim", [7, 12, 96, 100, 128])
    @pytest.mark.parametrize("metric", ["sqeuclidean", "inner_product", "cosine"])
    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
    def test_first_visit_distances_bitwise_full_slab(self, dtype, metric, dim):
        """Compacting the fresh lanes into flat (query, node) pairs must
        not change a bit of any distance: every reduction is per pair."""
        from repro.core.distances import gathered_distances
        from repro.core.graph import INDEX_MASK, FixedDegreeGraph

        rng = np.random.default_rng(dim)
        n, rows, width = 50, 9, 12
        data = rng.standard_normal((n, dim)).astype(dtype)
        data[3] = 0.0  # zero norm under cosine, -0.0 under inner product
        graph = FixedDegreeGraph(rng.integers(0, n, size=(n, 4)).astype(np.uint32))
        engine = TraversalEngine(data, graph, metric=metric)
        queries = rng.standard_normal((rows, dim)).astype(np.float32)
        ids = rng.integers(0, n, size=(rows, width)).astype(np.uint32)
        ids[0, :3] = 3
        usable = rng.random((rows, width)) < 0.8
        allowed = rng.random(n) < 0.7
        plan = engine._resolve_plan(CONFIG, "single_cta", 10, dense=True)
        visited = plan.visited(rows, n)
        visited.table[:, ::5] = True  # already-visited nodes
        seen = visited.table[np.arange(rows)[:, None], ids.astype(np.intp)]
        report = plan.report()
        # float16/32 storage packs the candidates into keys, float64 keeps
        # (ids, dists) pairs; either decodes lane by lane.
        out_ids, dists = visited.decode(
            engine._first_visits(
                visited, np.arange(rows), queries, ids, usable, allowed, report
            )
        )
        full = gathered_distances(data, queries, ids.astype(np.intp), metric)
        if full.dtype == np.float32:
            full += np.float32(0.0)  # a packed key folds -0.0 into +0.0
        fresh = np.isfinite(dists)
        assert fresh.any() and not fresh.all()
        assert dists.dtype == full.dtype
        np.testing.assert_array_equal(
            dists[fresh].view(f"u{dists.itemsize}"),
            full[fresh].view(f"u{full.itemsize}"),
        )
        assert not (fresh & (seen | ~usable | ~allowed[ids])).any()
        np.testing.assert_array_equal(out_ids[fresh], ids[fresh])
        assert (out_ids[~usable] == INDEX_MASK).all()
        # filtered-out first visits are still computed (and charged)
        assert report.distance_computations >= int(fresh.sum())
        assert report.distance_computations + report.skipped_distance_computations == int(
            usable.sum()
        )


class TestEngineValidation:
    def test_mode_validated(self, regression):
        _, queries, index, _ = regression
        # "auto" is the adapter's Table-II dispatch, not an engine mode.
        for mode in ("warp", "auto"):
            with pytest.raises(ValueError, match="mode"):
                index.engine().search(queries, 10, config=CONFIG, mode=mode)

    def test_k_exceeding_itopk_rejected_in_reference(self, regression):
        _, queries, index, _ = regression
        with pytest.raises(ValueError, match="exceeds itopk"):
            index.search(queries, 70, config=CONFIG)


class TestSeedsValidation:
    """``seeds`` is checked at the engine boundary, typed and before any
    traversal work."""

    def test_wrong_shape_rejected(self, regression):
        _, queries, index, _ = regression
        engine = index.engine()
        for bad in (np.zeros(len(queries), dtype=np.int64),
                    np.zeros((len(queries) - 1, 2), dtype=np.int64),
                    np.zeros((len(queries), 0), dtype=np.int64)):
            with pytest.raises(ValueError, match="seeds must have shape"):
                engine.search(queries, 10, config=CONFIG, seeds=bad)
        with pytest.raises(ValueError, match="integer"):
            engine.search(queries, 10, config=CONFIG, seeds=np.zeros((len(queries), 2)))

    def test_out_of_range_ids_rejected(self, regression):
        _, queries, index, _ = regression
        engine = index.engine()
        size = index.graph.num_nodes
        for value in (-1, size):
            seeds = np.zeros((len(queries), 3), dtype=np.int64)
            seeds[-1, 1] = value
            with pytest.raises(ValueError, match="seed ids must lie"):
                engine.search(queries, 10, config=CONFIG, seeds=seeds)

    def test_reference_mode_rejects_seeds(self, regression):
        _, queries, index, _ = regression
        seeds = np.zeros((len(queries), 2), dtype=np.int64)
        with pytest.raises(ValueError, match="only accepted in fast mode"):
            index.engine().search(
                queries, 10, config=CONFIG, mode="reference", seeds=seeds
            )

    def test_given_seeds_replace_the_random_draws(self, regression):
        _, queries, index, _ = regression
        seeds = np.repeat(np.arange(4, dtype=np.int64)[None], len(queries), axis=0)
        seeds[:, 3] = 0  # a duplicate entry point is visited once
        result = index.engine().search(queries, 10, config=CONFIG, seeds=seeds)
        drawn = index.engine().search(queries, 10, config=CONFIG)
        assert result.report.random_inits == 0 < drawn.report.random_inits
        assert result.indices.shape == (len(queries), 10)


class TestQueryValidation:
    """Malformed queries fail typed at ``TraversalEngine.search`` — before
    any traversal work, and the same way on every path."""

    @staticmethod
    def _paths(index):
        yield "reference-scalar", lambda q: index.search(q[:1], 10, config=CONFIG)
        yield "reference-slab", lambda q: index.search(q, 10, config=CONFIG)
        yield "fast", lambda q: index.search_fast(q, 10, config=CONFIG)

    def test_wrong_dim_names_both_dims(self, regression):
        _, queries, index, _ = regression
        for name, run in self._paths(index):
            with pytest.raises(ValueError, match=r"query dim 8 .* index dim 24"):
                run(queries[:, :8])

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_the_row(self, regression, poison):
        _, queries, index, _ = regression
        bad = queries.copy()
        bad[0, 3] = poison
        later = queries.copy()
        later[5, 0] = poison
        for name, run in self._paths(index):
            with pytest.raises(ValueError, match="query row 0 contains NaN or inf"):
                run(bad)
        with pytest.raises(ValueError, match="query row 5"):
            index.search_fast(later, 10, config=CONFIG)

    def test_sharded_path_rejects_too(self, regression):
        data, queries, _, _ = regression
        from repro.core.sharding import ShardedCagraIndex

        sharded = ShardedCagraIndex.build(
            data, 3, GraphBuildConfig(graph_degree=16, seed=0)
        )
        bad = queries.copy()
        bad[2, 1] = np.nan
        try:
            for search in (sharded.search, sharded.search_fast):
                with pytest.raises(ValueError, match="query row 2"):
                    search(bad, 10, config=CONFIG)
                with pytest.raises(ValueError, match="index dim 24"):
                    search(queries[:, :8], 10, config=CONFIG)
        finally:
            sharded.close()

    def test_single_vector_query_still_accepted(self, regression):
        _, queries, index, _ = regression
        one = index.search_fast(queries[0], 10, config=CONFIG)
        np.testing.assert_array_equal(
            one.indices, index.search_fast(queries[:1], 10, config=CONFIG).indices
        )
