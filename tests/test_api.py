"""repro.api: the unified AnnIndex protocol, factory, and persistence.

Covers the acceptance criteria of the protocol refactor:

* all seven index kinds pass one shared conformance suite (protocol
  check, int32/float32 dtype + shape contract, trailing-``INDEX_MASK``
  padding invariant, determinism, ``filter_mask``);
* ``save``/``load`` round-trips through the format registry with sniff
  detection for every kind;
* CAGRA search results stay bitwise identical to the pre-refactor
  seeded regression fixture (reference, fast, multi-CTA, and sharded
  paths).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import (
    INDEX_KINDS,
    AnnIndex,
    BruteForceIndex,
    BuildSpec,
    SearchRequest,
    SearchResult,
    StageRecorder,
    UnknownIndexFormatError,
    as_ann_index,
    build_index,
    load_ann_index,
    load_index,
    normalize_results,
    save_index,
    sniff_format,
    stage_timer,
)
from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.graph import INDEX_MASK

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cagra_regression.npz")

ALL_KINDS = INDEX_KINDS


@pytest.fixture(scope="module")
def api_data() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.standard_normal((300, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def api_queries(api_data) -> np.ndarray:
    rng = np.random.default_rng(12)
    return (api_data[:6] + 0.05 * rng.standard_normal((6, 16))).astype(np.float32)


@pytest.fixture(scope="module")
def adapters(api_data) -> dict:
    """One adapter per kind (plus a 2-shard CAGRA), built once."""
    built = {
        kind: build_index(kind, api_data, degree=8, seed=0) for kind in ALL_KINDS
    }
    built["sharded-cagra"] = build_index(
        "cagra", api_data, degree=8, seed=0, shards=2
    )
    return built


ALL_SURFACES = ALL_KINDS + ("sharded-cagra",)

#: Every public entry a search request can come in through.
REQUEST_SURFACES = ALL_SURFACES + ("mutable", "server", "router")


@pytest.fixture(scope="module")
def request_surfaces(adapters):
    """``name -> (search(query, k, **kw), takes_mask, work_done())``.

    ``work_done()`` is true once the surface has computed a distance or
    queued a request: the ``on_stage`` recorder saw an event, or a
    server's ``submitted`` counter moved.
    """
    from repro.router import ShardRouter
    from repro.serve import CagraServer
    from repro.stream import MutableIndex

    recorder = StageRecorder()

    def staged(search):
        return lambda query, k, **kw: search(
            query, k, on_stage=recorder.on_stage, **kw
        )

    surfaces = {
        kind: (staged(adapters[kind].search), True, lambda: recorder.events)
        for kind in ALL_SURFACES
    }
    mutable = MutableIndex(adapters["cagra"])
    surfaces["mutable"] = (staged(mutable.search), True, lambda: recorder.events)
    core = adapters["cagra"].inner
    server = CagraServer(core, on_stage=recorder.on_stage)  # never started
    surfaces["server"] = (
        lambda query, k: server.submit(query, k=k), False,
        lambda: recorder.events or server.stats().submitted,
    )
    router = ShardRouter.build(core, 2, on_stage=recorder.on_stage).start()
    surfaces["router"] = (
        lambda query, k: router.search(query, k=k), False,
        lambda: recorder.events or router.stats().submitted,
    )
    yield surfaces
    router.stop()
    server.stop()


class TestConformance:
    """The shared contract every adapter must satisfy."""

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_satisfies_protocol(self, adapters, kind):
        ann = adapters[kind]
        assert isinstance(ann, AnnIndex)
        assert ann.kind == kind

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_introspection(self, adapters, api_data, kind):
        ann = adapters[kind]
        assert ann.dim == api_data.shape[1]
        assert ann.size == api_data.shape[0]
        assert ann.metric == "sqeuclidean"
        assert ann.num_shards == (2 if kind == "sharded-cagra" else 1)

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_dtype_and_shape_contract(self, adapters, api_queries, kind):
        result = adapters[kind].search(api_queries, 5)
        assert isinstance(result, SearchResult)
        assert result.indices.dtype == np.int32
        assert result.distances.dtype == np.float32
        assert result.indices.shape == (api_queries.shape[0], 5)
        assert result.distances.shape == (api_queries.shape[0], 5)
        assert result.batch == api_queries.shape[0] and result.k == 5
        assert not result.degraded
        assert result.counters.get("distance_computations", 0) > 0

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_index_mask_trailing_invariant(self, adapters, api_queries, kind):
        """Unfilled slots are (INDEX_MASK, +inf) and only ever trailing —
        also when ``k`` exceeds the index size (and CAGRA's itopk): the
        answer is ``(batch, k)`` with distinct real ids first, padded, at
        batch 1 exactly as at batch 2."""
        for batch, k in ((6, 5), (1, 305), (2, 305)):
            result = adapters[kind].search(api_queries[:batch], k)
            assert result.indices.shape == result.distances.shape == (batch, k)
            unfilled = result.indices == int(INDEX_MASK)
            assert np.array_equal(unfilled, ~np.isfinite(result.distances))
            # Trailing only: once a row goes unfilled it stays unfilled.
            assert np.array_equal(unfilled, np.logical_or.accumulate(unfilled, axis=1))
            filled = result.indices[~unfilled]
            assert filled.size > 0
            assert (filled >= 0).all() and (filled < adapters[kind].size).all()
            for row, gone in zip(result.indices, unfilled):
                assert np.unique(row[~gone]).size == (~gone).sum()

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_deterministic(self, adapters, api_queries, kind):
        first = adapters[kind].search(api_queries, 5)
        second = adapters[kind].search(api_queries, 5)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.distances, second.distances)

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_filter_mask(self, adapters, api_queries, kind):
        ann = adapters[kind]
        mask = np.zeros(ann.size, dtype=bool)
        mask[: ann.size // 2] = True
        result = ann.search(api_queries, 5, filter_mask=mask)
        hits = result.indices[result.indices != int(INDEX_MASK)]
        assert hits.size > 0
        assert (hits < ann.size // 2).all()

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_single_query_1d_input(self, adapters, api_queries, kind):
        result = adapters[kind].search(api_queries[0], 3)
        assert result.indices.shape == (1, 3)

    @pytest.mark.parametrize("surface", REQUEST_SURFACES)
    def test_bad_requests_fail_typed_before_any_work(
        self, request_surfaces, api_data, api_queries, surface
    ):
        """One table: every public search entry refuses the same malformed
        request with the same ``validate_request`` message, before any
        distance is computed — not a (batch, 0) result, a numpy broadcast
        failure, an all-sentinel answer or a failed replica leg."""
        search, takes_mask, work_done = request_surfaces[surface]
        good, size = api_queries[0], api_data.shape[0]

        def poisoned(value):
            bad = good.copy()
            bad[3] = value
            return bad

        cases = [
            (good, 0, {}, "k must be >= 1"),
            (good[:8], 3, {}, "query dim 8 does not match index dim 16"),
            (good[None, None, :], 3, {},
             "queries must be 1-D or 2-D, got shape (1, 1, 16)"),
            (poisoned(np.nan), 3, {}, "query row 0 contains NaN or inf"),
            (poisoned(np.inf), 3, {}, "query row 0 contains NaN or inf"),
            (poisoned(-np.inf), 3, {}, "query row 0 contains NaN or inf"),
        ]
        if takes_mask:
            cases += [
                (good, 3, {"filter_mask": np.ones(size - 1, dtype=bool)},
                 "filter_mask must have one entry per dataset row"),
                (good, 3, {"filter_mask": np.zeros(size, dtype=bool)},
                 "filter_mask excludes every node"),
            ]
        for query, k, kwargs, message in cases:
            with pytest.raises(ValueError) as raised:
                search(query, k, **kwargs)
            assert str(raised.value) == message
            assert not work_done()

    @pytest.mark.parametrize(
        "surface, batch, mode",
        [
            pytest.param("cagra", 20, "fast", id="cagra"),
            pytest.param("cagra", 20, "reference", id="cagra-reference-slab"),
            pytest.param("cagra", 3, "reference", id="cagra-reference-scalar"),
            pytest.param("chunked", 20, "fast", id="chunked"),
            pytest.param("sharded-cagra", 20, "fast", id="sharded-cagra"),
            pytest.param("mutable", 20, "fast", id="mutable"),
            pytest.param("ganns", 20, "auto", id="ganns"),
            pytest.param("nssg", 20, "auto", id="nssg"),
        ],
    )
    def test_one_answer_per_query_and_position(
        self, adapters, api_data, monkeypatch, surface, batch, mode
    ):
        """An answer depends on the index, the query's bytes and the config
        only: ``search(Q)[i] == search(Q[perm])[perm⁻¹(i)] ==
        search(Q[i:i+1])[0]``, bitwise, whatever the batch, its order or its
        chunking.  A lone reference query runs the sequential spec, so the
        batch-20 reference case also holds the two arms to each other.
        (``mode="auto"`` cannot promise this for CAGRA: a lone query is a
        multi-CTA answer.)"""
        if surface == "mutable":
            from repro.stream import MutableIndex

            ann = MutableIndex(adapters["cagra"])
        elif surface == "chunked":
            from repro.core.traversal import TraversalEngine

            monkeypatch.setattr(TraversalEngine, "_chunk_rows", lambda self, plan: 3)
            ann = adapters["cagra"]
        else:
            ann = adapters[surface]
        rng = np.random.default_rng(batch)
        rows = rng.choice(len(api_data), batch, replace=False)
        queries = (api_data[rows] + 0.05 * rng.standard_normal((batch, 16))).astype(
            np.float32
        )
        perm = rng.permutation(batch)
        # A short, narrow walk: the answer leans on the random seeds.
        config = SearchConfig(itopk=8, max_iterations=3)
        whole = ann.search(queries, 5, config=config, mode=mode)
        shuffled = ann.search(queries[perm], 5, config=config, mode=mode)
        inverse = np.argsort(perm)
        assert np.array_equal(shuffled.indices[inverse], whole.indices)
        assert np.array_equal(shuffled.distances[inverse], whole.distances)
        for i in range(batch):
            alone = ann.search(queries[i : i + 1], 5, config=config, mode=mode)
            assert np.array_equal(alone.indices[0], whole.indices[i]), i
            assert np.array_equal(alone.distances[0], whole.distances[i]), i

    def test_served_answer_equals_offline(self, adapters, api_data):
        """A started server answers 64 requests in mixed micro-batches
        (ten of 6, one of 4 — all coalesced, so all on the fast engine),
        and every answer is bitwise ``index.search_fast(Q)``'s row."""
        from repro.serve import CagraServer, ServeConfig

        index = adapters["cagra"].inner
        rng = np.random.default_rng(64)
        queries = (
            api_data[rng.choice(len(api_data), 64, replace=False)]
            + 0.05 * rng.standard_normal((64, 16))
        ).astype(np.float32)
        offline = index.search_fast(queries, 10)
        offline_ids, offline_dists = normalize_results(offline.indices, offline.distances)
        server = CagraServer(index, ServeConfig(max_batch=6, max_wait_ms=50.0))
        # Queued before the scheduler starts, so the batch geometry is fixed.
        pending = [server.submit(query, k=10) for query in queries]
        with server:
            answers = [handle.result() for handle in pending]
            stats = server.stats()
        assert stats.batch_size_histogram == {6: 10, 4: 1}
        assert stats.single_query_batches == 0
        for i, answer in enumerate(answers):
            assert np.array_equal(answer.indices, offline_ids[i]), i
            assert np.array_equal(answer.distances, offline_dists[i]), i

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_search_request_object(self, adapters, api_queries, kind):
        request = SearchRequest(queries=api_queries, k=4)
        result = adapters[kind].search_request(request)
        direct = adapters[kind].search(api_queries, 4)
        assert np.array_equal(result.indices, direct.indices)


class TestPersistenceRegistry:
    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_save_sniff_load_roundtrip(self, adapters, api_queries, tmp_path, kind):
        path = str(tmp_path / f"{kind}.npz")
        save_index(adapters[kind], path)
        assert sniff_format(path) == kind
        reloaded = load_ann_index(path)
        assert reloaded.kind == kind
        before = adapters[kind].search(api_queries, 5)
        after = reloaded.search(api_queries, 5)
        assert np.array_equal(before.indices, after.indices)
        assert np.array_equal(before.distances, after.distances)

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_saved_at_exactly_the_given_path(self, adapters, api_queries, tmp_path, kind):
        path = tmp_path / kind  # no ".npz" suffix
        save_index(adapters[kind], str(path))
        assert os.listdir(tmp_path) == [kind]
        reloaded = load_ann_index(str(path))
        before = adapters[kind].search(api_queries, 5)
        assert np.array_equal(before.indices, reloaded.search(api_queries, 5).indices)

    def test_native_save_uses_the_given_path(self, adapters, tmp_path):
        from repro.core.index import CagraIndex
        from repro.core.sharding import ShardedCagraIndex

        for kind, native in (("cagra", CagraIndex), ("sharded-cagra", ShardedCagraIndex)):
            path = str(tmp_path / f"native-{kind}")
            adapters[kind].inner.save(path)
            loaded = native.load(path)
            assert np.array_equal(
                loaded.search_fast(adapters[kind].dataset[:4], 3).indices,
                adapters[kind].inner.search_fast(adapters[kind].dataset[:4], 3).indices,
            )
        assert sorted(os.listdir(tmp_path)) == ["native-cagra", "native-sharded-cagra"]

    #: The exact keys each kind's archive holds, as written before the
    #: kind registry: CAGRA archives stay untagged, the rest carry
    #: ``format=<kind>``.  Archives of either layout load on the other.
    ARCHIVE_KEYS = {
        "cagra": {"dataset", "metric", "neighbors"},
        "sharded-cagra": {
            "assignment_0", "assignment_1", "dataset_0", "dataset_1", "metric",
            "neighbors_0", "neighbors_1", "num_shards",
        },
        "hnsw": {
            "data", "ef_construction", "entry_point", "format", "m", "max_level",
            "metric", "num_layers",
        } | {
            f"layer{level}_{part}"
            for level in range(6)
            for part in ("nodes", "offsets", "values")
        },
        "ggnn": {"coarse_ids", "data", "degree", "format", "metric", "neighbors"},
        "ganns": {
            "adjacency_offsets", "adjacency_values", "data", "degree",
            "entry_point", "format", "metric",
        },
        "nssg": {
            "adjacency_offsets", "adjacency_values", "data", "degree_bound",
            "format", "metric",
        },
        "bruteforce": {"data", "format", "metric"},
    }

    @pytest.mark.parametrize("kind", ALL_SURFACES)
    def test_archive_key_set_is_pinned(self, adapters, tmp_path, kind):
        path = str(tmp_path / f"{kind}.npz")
        save_index(adapters[kind], path)
        with np.load(path, allow_pickle=False) as archive:
            assert set(archive.files) == self.ARCHIVE_KEYS[kind]
            if "format" in archive.files:
                assert str(archive["format"]) == kind

    @staticmethod
    def _damaged(kind: str, source: str, path: str) -> None:
        if kind == "truncated":
            with open(source, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[: len(blob) // 2])
        elif kind == "text":
            with open(path, "w") as handle:
                handle.write("not an index\n")
        elif kind == "empty":
            open(path, "wb").close()
        else:  # a tagged archive missing one of its keys
            with np.load(source, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files if key != "m"}
            np.savez(path, **arrays)

    @pytest.mark.parametrize(
        "damage, source_kind",
        [("truncated", "cagra"), ("text", "cagra"), ("empty", "cagra"),
         ("missing-key", "hnsw")],
    )
    def test_damaged_archive_fails_typed(self, adapters, tmp_path, damage, source_kind):
        source = str(tmp_path / "source.npz")
        save_index(adapters[source_kind], source)
        path = str(tmp_path / f"{damage}.npz")
        self._damaged(damage, source, path)
        with pytest.raises(UnknownIndexFormatError, match="damaged|not an index") as info:
            load_index(path)
        assert path in str(info.value) and info.value.__cause__ is not None
        if damage != "missing-key":  # the tag still names the kind
            with pytest.raises(UnknownIndexFormatError) as info:
                sniff_format(path)
            assert path in str(info.value)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "absent.npz"))

    def test_load_index_returns_native_cagra(self, adapters, tmp_path):
        from repro.core.index import CagraIndex

        path = str(tmp_path / "native.npz")
        save_index(adapters["cagra"], path)
        assert isinstance(load_index(path), CagraIndex)

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        np.savez(path, whatever=np.arange(3))
        with pytest.raises(UnknownIndexFormatError):
            sniff_format(path)
        with pytest.raises(UnknownIndexFormatError):
            load_index(path)

    def test_load_fault_point_fires(self, adapters, tmp_path):
        import json

        from repro.resilience.faults import FaultInjected

        path = str(tmp_path / "faulty.npz")
        save_index(adapters["cagra"], path)
        plan = json.dumps([{"point": "index.load"}])
        with pytest.raises(FaultInjected):
            load_index(path, fault_plan=plan)
        # Without a plan the same file loads cleanly.
        assert load_index(path, fault_plan="") is not None


class TestFactory:
    def test_unknown_kind(self, api_data):
        with pytest.raises(ValueError, match="kind"):
            build_index("faiss", api_data)

    def test_sharded_non_cagra_rejected(self, api_data):
        with pytest.raises(ValueError, match="cagra"):
            BuildSpec(kind="hnsw", shards=2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            BuildSpec(kind="cagra", degree=-1)

    def test_build_emits_stage(self, api_data):
        recorder = StageRecorder()
        build_index("bruteforce", api_data, on_stage=recorder.on_stage)
        assert [e.name for e in recorder.events] == ["build.bruteforce"]
        assert recorder.events[0].counters["size"] == api_data.shape[0]

    def test_as_ann_index_idempotent(self, adapters):
        for kind in ALL_SURFACES:
            rewrapped = as_ann_index(adapters[kind])
            assert rewrapped.kind == kind

    def test_as_ann_index_rejects_unknown(self):
        with pytest.raises(TypeError, match="cannot adapt"):
            as_ann_index(object())


class TestValueObjects:
    def test_search_request_validation(self, api_queries):
        with pytest.raises(ValueError, match="k"):
            SearchRequest(queries=api_queries, k=0)
        request = SearchRequest(queries=api_queries[0])
        assert request.queries.ndim == 2 and request.batch == 1

    def test_normalize_results_moves_unfilled_to_tail(self):
        ids = np.array([[int(INDEX_MASK), 3, 7]], dtype=np.int64)
        dists = np.array([[np.inf, 0.5, 0.25]])
        out_ids, out_dists = normalize_results(ids, dists)
        assert out_ids.dtype == np.int32 and out_dists.dtype == np.float32
        assert out_ids.tolist() == [[3, 7, int(INDEX_MASK)]]
        assert out_dists[0, 2] == np.inf

    def test_stage_timer_and_recorder(self):
        recorder = StageRecorder()
        with stage_timer(recorder.on_stage, "unit.test") as stage:
            stage.counters = {"work": 1}
        with stage_timer(None, "ignored"):
            pass
        assert [e.name for e in recorder.events] == ["unit.test"]
        assert recorder.stage_seconds()["unit.test"] >= 0.0
        records = recorder.as_records()
        assert records[0]["name"] == "unit.test"
        assert records[0]["counters"] == {"work": 1}

    def test_on_stage_threaded_through_unified_search(self, adapters, api_queries):
        recorder = StageRecorder()
        adapters["cagra"].search(
            api_queries, 5, mode="fast", on_stage=recorder.on_stage
        )
        adapters["sharded-cagra"].search(
            api_queries, 5, mode="fast", on_stage=recorder.on_stage
        )
        adapters["hnsw"].search(api_queries, 5, on_stage=recorder.on_stage)
        names = [e.name for e in recorder.events]
        assert names[0] == "core.search_fast"
        assert "shard.0.search" in names and "shard.merge" in names
        assert names[-1] == "baseline.hnsw.search"


class TestDeprecationShim:
    def test_unknown_attribute_still_raises(self):
        import repro.core.sharding as sharding

        with pytest.raises(AttributeError):
            sharding.no_such_name


class TestCagraRegressionFixture:
    """Search results must be bitwise identical to the pre-refactor runs."""

    @pytest.fixture(scope="class")
    def regression(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((600, 24)).astype(np.float32)
        queries = rng.standard_normal((32, 24)).astype(np.float32)
        from repro.core.index import CagraIndex

        index = CagraIndex.build(data, GraphBuildConfig(graph_degree=16, seed=0))
        with np.load(FIXTURE) as archive:
            expected = {key: archive[key] for key in archive.files}
        return data, queries, index, expected

    def test_reference_path_bitwise(self, regression):
        _, queries, index, expected = regression
        result = index.search(queries, 10, config=SearchConfig(itopk=64, seed=0))
        np.testing.assert_array_equal(result.indices, expected["ref_indices"])
        np.testing.assert_array_equal(result.distances, expected["ref_distances"])

    def test_fast_path_bitwise(self, regression):
        _, queries, index, expected = regression
        result = index.search_fast(queries, 10, config=SearchConfig(itopk=64, seed=0))
        np.testing.assert_array_equal(result.indices, expected["fast_indices"])
        np.testing.assert_array_equal(result.distances, expected["fast_distances"])

    def test_multi_cta_bitwise(self, regression):
        _, queries, index, expected = regression
        result = index.search(
            queries[:1], 10,
            config=SearchConfig(itopk=64, seed=0, algo="multi_cta"),
        )
        np.testing.assert_array_equal(result.indices, expected["multi_indices"])
        np.testing.assert_array_equal(result.distances, expected["multi_distances"])

    def test_sharded_fast_bitwise(self, regression):
        data, queries, _, expected = regression
        from repro.core.sharding import ShardedCagraIndex

        sharded = ShardedCagraIndex.build(
            data, 3, GraphBuildConfig(graph_degree=16, seed=0)
        )
        try:
            result = sharded.search_fast(
                queries, 10, config=SearchConfig(itopk=64, seed=0)
            )
        finally:
            sharded.close()
        np.testing.assert_array_equal(result.indices, expected["sharded_indices"])
        np.testing.assert_array_equal(result.distances, expected["sharded_distances"])

    def test_adapter_preserves_values(self, regression):
        """The int32/float32 adapter surface narrows dtype, never values."""
        _, queries, index, expected = regression
        result = as_ann_index(index).search(
            queries, 10, config=SearchConfig(itopk=64, seed=0), mode="reference"
        )
        np.testing.assert_array_equal(
            result.indices, expected["ref_indices"].astype(np.int32)
        )
        np.testing.assert_array_equal(
            result.distances, expected["ref_distances"].astype(np.float32)
        )
