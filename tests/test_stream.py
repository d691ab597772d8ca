"""repro.stream: mutable index lifecycle (``docs/streaming.md``).

Covers the streaming contract end to end:

* :class:`ExactMemtable` buffering semantics (immediate visibility,
  duplicate rejection, prefix/drain bookkeeping);
* :class:`WriteAheadLog` durability ordering — commit-record atomicity,
  torn-tail and orphan-segment recovery, checkpoint folding;
* :class:`StalenessPolicy` — churn floor, cold-start branches, and the
  *measured* incremental-vs-full break-even;
* :class:`MutableIndex` — insert/delete/search visibility rules, the
  uniform ``filter_mask`` length contract, oracle recall, and the two
  maintenance paths with atomic promotion;
* :class:`Rebuilder` foreground/background equivalence;
* crash recovery: a real ``os._exit`` inside the ``stream.wal.append``
  crash window, then replay must match a never-crashed twin bitwise;
* the serving layer: ``CagraServer.insert/delete``, cache invalidation
  on mutation, freshness stats, ``auto_rebuild``;
* the 500+-op deterministic mixed-workload integration test with
  mid-stream rebuilds and promotions (the acceptance gauntlet).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import CagraIndex, GraphBuildConfig
from repro.api import BruteForceIndex, build_index
from repro.core.graph import INDEX_MASK
from repro.core.metrics import recall as recall_of
from repro.datasets.synthetic import clustered_gaussian, make_queries
from repro.resilience import FaultInjected
from repro.serve import CagraServer, ServeConfig, ServeError
from repro.stream import (
    CostModel,
    ExactMemtable,
    MutableIndex,
    Rebuilder,
    StalenessPolicy,
    StreamFreshness,
    WriteAheadLog,
    run_mixed_closed_loop,
)

MASK = int(INDEX_MASK)


def _freshness(**overrides) -> StreamFreshness:
    base = dict(
        base_rows=1000, tombstone_rows=0, memtable_rows=0, memtable_live=0,
        live_rows=1000, id_capacity=1000, epoch=0, wal_seq=0,
        query_rate_qps=0.0, search_seconds_per_query=0.0,
    )
    base.update(overrides)
    return StreamFreshness(**base)


@pytest.fixture(scope="module")
def stream_data():
    return clustered_gaussian(420, 16, seed=11)


@pytest.fixture(scope="module")
def stream_base(stream_data):
    """Degree-12 base on the first 300 rows; the tail is the insert pool."""
    return CagraIndex.build(
        stream_data[:300], GraphBuildConfig(graph_degree=12, seed=5)
    )


@pytest.fixture(scope="module")
def stream_pool(stream_data):
    return stream_data[300:]


@pytest.fixture(scope="module")
def stream_queries(stream_data):
    return make_queries(stream_data[:300], 12, seed=6)


# ======================================================================
# memtable
# ======================================================================
class TestExactMemtable:
    def test_insert_search_delete_cycle(self):
        mem = ExactMemtable(4, "sqeuclidean")
        vecs = np.eye(3, 4, dtype=np.float32)
        mem.insert(np.array([10, 11, 12], dtype=np.int64), vecs)
        assert mem.num_rows == 3 and mem.num_live == 3
        ids, dists = mem.snapshot().search(vecs[:1], k=2)
        assert ids[0, 0] == 10 and dists[0, 0] == pytest.approx(0.0)
        assert mem.delete(11) and not mem.delete(11)  # second flip is a no-op
        assert mem.num_live == 2 and mem.contains(11) and not mem.is_live(11)
        ids, _ = mem.snapshot().search(vecs[1:2], k=3)
        assert 11 not in ids[0].tolist()

    def test_duplicate_ids_rejected(self):
        mem = ExactMemtable(2, "sqeuclidean")
        mem.insert(np.array([1], dtype=np.int64), np.zeros((1, 2), np.float32))
        with pytest.raises(ValueError, match="already"):
            mem.insert(np.array([1], dtype=np.int64), np.ones((1, 2), np.float32))

    def test_prefix_drop_keeps_later_rows(self):
        mem = ExactMemtable(2, "sqeuclidean")
        mem.insert(np.arange(4, dtype=np.int64), np.zeros((4, 2), np.float32))
        mem.delete(1)
        ids, _, live = mem.prefix(2)
        assert ids.tolist() == [0, 1] and live.tolist() == [True, False]
        mem.drop_prefix(2)
        assert mem.num_rows == 2 and sorted(mem.ids().tolist()) == [2, 3]
        assert mem.is_live(3) and not mem.contains(0)

    def test_snapshot_is_isolated_from_later_writes(self):
        mem = ExactMemtable(2, "sqeuclidean")
        mem.insert(np.array([0], dtype=np.int64), np.zeros((1, 2), np.float32))
        snap = mem.snapshot()
        mem.insert(np.array([1], dtype=np.int64), np.ones((1, 2), np.float32))
        mem.delete(0)
        ids, _ = snap.search(np.zeros((1, 2), np.float32), k=4)
        assert ids[0].tolist()[:1] == [0] and 1 not in ids[0].tolist()

    def test_allowed_ids_mask_applies(self):
        mem = ExactMemtable(2, "sqeuclidean")
        mem.insert(np.array([3, 7], dtype=np.int64), np.zeros((2, 2), np.float32))
        allowed = np.zeros(8, dtype=bool)
        allowed[7] = True
        ids, _ = mem.snapshot().search(
            np.zeros((1, 2), np.float32), k=2, allowed_ids=allowed
        )
        kept = [i for i in ids[0].tolist() if i != MASK]
        assert kept == [7]


# ======================================================================
# write-ahead log
# ======================================================================
class TestWriteAheadLog:
    def test_roundtrip_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        vecs = np.arange(6, dtype=np.float32).reshape(2, 3)
        wal.append_insert(np.array([5, 6], dtype=np.int64), vecs)
        wal.append_delete(np.array([5], dtype=np.int64))
        wal.close()
        replay = WriteAheadLog(str(tmp_path)).replay()
        assert [r.op for r in replay.records] == ["insert", "delete"]
        assert [r.seq for r in replay.records] == [1, 2]
        assert not replay.torn_tail and replay.orphan_segments == 0
        loaded = WriteAheadLog(str(tmp_path)).load_segment(replay.records[0])
        np.testing.assert_array_equal(loaded, vecs)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append_delete([1])
        wal.close()
        with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"op": "delete", "se')  # crash mid-commit
        replay = WriteAheadLog(str(tmp_path)).replay()
        assert replay.torn_tail
        assert [r.seq for r in replay.records] == [1]

    def test_orphan_segment_counted_not_replayed(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append_insert([1], np.zeros((1, 2), np.float32))
        wal.close()
        # A segment with no commit record: the crash-window artifact.
        np.save(tmp_path / "seg-00000002.npy", np.ones((1, 2), np.float32))
        replay = WriteAheadLog(str(tmp_path)).replay()
        assert replay.orphan_segments == 1
        assert [r.seq for r in replay.records] == [1]

    def test_checkpoint_folds_and_prunes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append_insert([0], np.zeros((1, 2), np.float32))
        wal.append_insert([1], np.ones((1, 2), np.float32))
        wal.checkpoint({"state": np.arange(3)}, next_id=2)
        wal.append_delete([0])
        wal.close()
        assert not (tmp_path / "seg-00000001.npy").exists()  # pruned
        replay = WriteAheadLog(str(tmp_path)).replay()
        assert replay.checkpoint is not None
        np.testing.assert_array_equal(replay.checkpoint["state"], np.arange(3))
        assert int(replay.checkpoint["next_id"]) == 2
        # Only the post-checkpoint delete replays; folded ops are skipped.
        assert [(r.op, r.seq) for r in replay.records] == [("delete", 3)]

    def test_corrupt_fault_tears_the_commit(self, tmp_path):
        plan = json.dumps([
            {"point": "stream.wal.append", "kind": "corrupt",
             "match": {"seq": 2}},
        ])
        wal = WriteAheadLog(str(tmp_path), fault_plan=plan)
        wal.append_delete([1])
        with pytest.raises(FaultInjected):
            wal.append_delete([2])
        wal.close()
        replay = WriteAheadLog(str(tmp_path)).replay()
        assert replay.torn_tail
        assert [r.seq for r in replay.records] == [1]

    def test_mismatched_lengths_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with pytest.raises(ValueError, match="same length"):
            wal.append_insert([1, 2], np.zeros((1, 2), np.float32))


# ======================================================================
# staleness policy
# ======================================================================
class TestStalenessPolicy:
    def test_churn_floor_blocks_action(self):
        policy = StalenessPolicy(min_memtable_rows=64, min_tombstone_ratio=0.05)
        decision = policy.decide(_freshness(memtable_rows=10))
        assert decision.action == "none" and "floor" in decision.reason

    def test_cold_start_prefers_incremental(self):
        policy = StalenessPolicy(min_memtable_rows=8)
        decision = policy.decide(_freshness(memtable_rows=50))
        assert decision.action == "incremental"
        assert "cold start" in decision.reason
        assert np.isnan(decision.est_incremental_s)

    def test_cold_start_rebuilds_when_tombstones_dominate(self):
        policy = StalenessPolicy(min_memtable_rows=8)
        decision = policy.decide(
            _freshness(tombstone_rows=400, live_rows=600)
        )
        assert decision.action == "full"

    def test_measured_break_even_both_sides(self):
        costs = CostModel()
        costs.note_extend(100, 0.1)   # 1 ms/row incremental
        costs.note_build(100, 1.0)    # 10 ms/row full
        policy = StalenessPolicy(min_memtable_rows=8, horizon_s=10.0, costs=costs)
        # Few tombstones: repairing 100 rows (0.1s) beats rebuilding
        # 1000 rows (10s).
        cheap = policy.decide(_freshness(memtable_rows=100))
        assert cheap.action == "incremental"
        assert cheap.est_incremental_s < cheap.est_full_s
        # Heavy tombstones + hot query stream: the t/(1-t) overhead term
        # charged over the horizon dwarfs the one-off build.
        costly = policy.decide(_freshness(
            memtable_rows=100, tombstone_rows=500, live_rows=600,
            query_rate_qps=500.0, search_seconds_per_query=0.05,
        ))
        assert costly.action == "full"
        assert costly.est_full_s < costly.est_incremental_s

    def test_empty_memtable_rebuilds_only_when_it_pays(self):
        costs = CostModel()
        costs.note_extend(100, 0.1)
        costs.note_build(100, 1.0)
        policy = StalenessPolicy(
            min_memtable_rows=8, min_tombstone_ratio=0.05, horizon_s=10.0,
            costs=costs,
        )
        idle = policy.decide(_freshness(tombstone_rows=100, live_rows=900))
        assert idle.action == "none"  # nobody queries: waste is zero
        hot = policy.decide(_freshness(
            tombstone_rows=300, live_rows=700,
            query_rate_qps=1000.0, search_seconds_per_query=0.05,
        ))
        assert hot.action == "full"

    def test_note_report_routes_costs(self):
        from repro.stream import MaintenanceReport

        policy = StalenessPolicy()
        policy.note_report(MaintenanceReport(
            action="incremental", rows_folded=10, rows_built=10,
            build_seconds=0.5, promote_seconds=0.0, epoch=1,
        ))
        assert policy.costs.extend_seconds_per_row == pytest.approx(0.05)
        assert policy.costs.build_seconds_per_row is None
        policy.note_report(MaintenanceReport(
            action="full", rows_folded=0, rows_built=100,
            build_seconds=2.0, promote_seconds=0.0, epoch=2,
        ))
        assert policy.costs.measured
        assert policy.costs.build_seconds_per_row == pytest.approx(0.02)

    def test_cost_model_ewma_blends(self):
        costs = CostModel()
        costs.note_extend(10, 1.0)  # 0.1 s/row
        costs.note_extend(10, 3.0)  # 0.3 s/row sample, alpha 0.3
        assert costs.extend_seconds_per_row == pytest.approx(0.16)
        assert costs.as_dict()["samples"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StalenessPolicy(min_memtable_rows=0)
        with pytest.raises(ValueError):
            StalenessPolicy(min_tombstone_ratio=1.5)
        with pytest.raises(ValueError):
            StalenessPolicy(horizon_s=0.0)


# ======================================================================
# mutable index
# ======================================================================
class TestMutableIndex:
    def test_insert_is_immediately_findable(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:3])
        assert ids.tolist() == [300, 301, 302]
        assert index.size == 303
        for row, ext in zip(stream_pool[:3], ids):
            result = index.search(row, k=1)
            assert int(result.indices[0, 0]) == int(ext)
            assert result.distances[0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_delete_excludes_both_legs(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:2])
        index.delete([5, int(ids[0])])  # one base row, one memtable row
        result = index.search(stream_base.dataset[5], k=20)
        flat = result.indices.ravel().tolist()
        assert 5 not in flat and int(ids[0]) not in flat

    def test_strict_delete_raises_on_unknown_or_dead(self, stream_base):
        index = MutableIndex(stream_base)
        with pytest.raises(KeyError):
            index.delete([99999])
        index.delete([7])
        with pytest.raises(KeyError):
            index.delete([7])
        assert index.delete([7], strict=False) == 0

    def test_insert_id_validation(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        with pytest.raises(ValueError, match="already exists"):
            index.insert(stream_pool[:1], ids=[5])
        with pytest.raises(ValueError, match="duplicate"):
            index.insert(stream_pool[:2], ids=[700, 700])
        with pytest.raises(ValueError, match="non-negative"):
            index.insert(stream_pool[:1], ids=[-1])
        with pytest.raises(ValueError, match="dim"):
            index.insert(np.zeros((1, 3), np.float32))

    def test_filter_mask_length_contract(self, stream_base, stream_pool):
        """The uniform contract: mask length == size, also after inserts."""
        index = MutableIndex(stream_base)
        q = stream_pool[:1]
        index.search(q, k=5, filter_mask=np.ones(index.size, dtype=bool))
        index.insert(stream_pool[:4])
        with pytest.raises(ValueError, match="one entry per dataset row"):
            index.search(q, k=5, filter_mask=np.ones(300, dtype=bool))
        index.search(q, k=5, filter_mask=np.ones(index.size, dtype=bool))
        with pytest.raises(ValueError, match="excludes every node"):
            index.search(q, k=5, filter_mask=np.zeros(index.size, dtype=bool))

    def test_filter_mask_restricts_results(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:2])
        mask = np.zeros(index.size, dtype=bool)
        mask[[3, 4, int(ids[1])]] = True
        result = index.search(stream_pool[:1], k=5, filter_mask=mask)
        found = {int(i) for i in result.indices.ravel() if int(i) != MASK}
        assert found <= {3, 4, int(ids[1])}

    def test_mask_admitting_only_deleted_ids_pads(self, stream_base, stream_pool):
        """A non-empty mask whose every id is deleted is ``k`` above the
        live match count, not a malformed request: all-sentinel rows."""
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:2])
        gone = [3, 4, int(ids[1])]
        index.delete(gone)
        mask = np.zeros(index.size, dtype=bool)
        mask[gone] = True
        result = index.search(stream_pool[:2], k=5, filter_mask=mask)
        assert result.indices.shape == (2, 5)
        assert (result.indices == MASK).all() and np.isinf(result.distances).all()

    def test_recall_vs_live_oracle(self, stream_base, stream_pool, stream_queries):
        index = MutableIndex(stream_base)
        index.insert(stream_pool[:30])
        index.delete(list(range(0, 40, 2)) + [305, 310])
        oracle = BruteForceIndex(index.dataset, metric=index.metric)
        live = index.live_mask()
        truth = oracle.search(stream_queries, 10, filter_mask=live)
        got = index.search(stream_queries, k=10)
        assert recall_of(got.indices, truth.indices) >= 0.95
        # Result-contract hygiene: int32 ids, trailing-only padding.
        assert got.indices.dtype == np.int32

    def test_dataset_and_live_mask_agree(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:3])
        index.delete([0, int(ids[1])])
        live = index.live_mask()
        assert live.shape == (index.size,)
        assert not live[0] and not live[int(ids[1])]
        assert live[int(ids[0])] and live[int(ids[2])]
        np.testing.assert_allclose(
            index.dataset[int(ids[2])], stream_pool[2], rtol=1e-6
        )

    def test_search_counters_and_stage_event(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        index.insert(stream_pool[:4])
        index.delete([1])
        events = []
        index.search(
            stream_pool[:2], k=5,
            on_stage=lambda name, s, c: events.append((name, c)),
        )
        names = [name for name, _ in events]
        assert "stream.search" in names
        counters = dict(events)["stream.search"]
        assert counters["algo"] == "stream"
        assert counters["memtable_rows"] == 4
        assert counters["tombstone_rows"] == 1

    def test_mutation_listener_fires_outside_lock(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        seen = []
        # Re-entering the index from the callback would deadlock if it
        # were invoked under the lock.
        index.set_mutation_listener(lambda: seen.append(index.size))
        index.insert(stream_pool[:1])
        index.delete([3])
        assert len(seen) == 2


class TestMaintenance:
    def test_repair_incremental_drains_and_preserves_ids(
        self, stream_base, stream_pool, stream_queries
    ):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:10])
        index.delete([int(ids[4])])
        stages = []
        report = index.repair_incremental(
            on_stage=lambda name, s, c: stages.append(name)
        )
        assert report.action == "incremental"
        assert report.rows_folded == 10 and report.rows_built == 9
        assert "core.extend" in stages
        fresh = index.freshness()
        assert fresh.memtable_rows == 0
        assert fresh.base_rows == 309 and fresh.epoch == 1
        # The row deleted before the drain is simply not folded in —
        # no tombstone needed for it.
        assert fresh.tombstone_rows == 0 and fresh.live_rows == 309
        flat = index.search(stream_pool[4:5], k=10).indices.ravel().tolist()
        assert int(ids[4]) not in flat
        # Surviving inserts keep their external ids in the graph.
        result = index.search(stream_pool[7:8], k=1)
        assert int(result.indices[0, 0]) == int(ids[7])

    def test_rebuild_full_clears_tombstones(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        ids = index.insert(stream_pool[:6])
        index.delete(list(range(10)) + [int(ids[0])])
        report = index.rebuild_full()
        assert report.action == "full"
        fresh = index.freshness()
        assert fresh.tombstone_rows == 0 and fresh.memtable_rows == 0
        assert fresh.live_rows == 300 + 6 - 11
        flat = index.search(stream_base.dataset[0], k=20).indices.ravel().tolist()
        assert 0 not in flat
        result = index.search(stream_pool[3:4], k=1)
        assert int(result.indices[0, 0]) == int(ids[3])

    def test_promotion_epoch_visible_in_freshness(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        index.insert(stream_pool[:2])
        assert index.freshness().epoch == 0
        index.repair_incremental()
        assert index.freshness().epoch == 1
        index.rebuild_full()
        assert index.freshness().epoch == 2


class TestRebuilder:
    def test_run_once_respects_policy_none(self, stream_base):
        rebuilder = Rebuilder(MutableIndex(stream_base),
                              StalenessPolicy(min_memtable_rows=64))
        assert rebuilder.run_once() is None
        assert rebuilder.history() == []

    def test_run_once_feeds_measured_costs_back(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        policy = StalenessPolicy(min_memtable_rows=4)
        rebuilder = Rebuilder(index, policy)
        index.insert(stream_pool[:8])
        report = rebuilder.run_once()
        assert report is not None and report.action == "incremental"
        assert policy.costs.extend_seconds_per_row is not None
        decision, rep, latency = rebuilder.history()[0]
        assert decision.action == "incremental" and rep is report
        assert latency >= rep.promote_seconds

    def test_force_bypasses_policy(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        rebuilder = Rebuilder(index, StalenessPolicy(min_memtable_rows=512))
        index.insert(stream_pool[:2])
        report = rebuilder.run_once(force="full")
        assert report.action == "full"
        decision, _, _ = rebuilder.history()[0]
        assert decision is None  # forced: no policy evaluation
        with pytest.raises(ValueError):
            rebuilder.run_once(force="nonsense")

    def test_background_thread_promotes(self, stream_base, stream_pool):
        import time

        index = MutableIndex(stream_base)
        promoted = []
        rebuilder = Rebuilder(
            index, StalenessPolicy(min_memtable_rows=4),
            interval_s=0.05, promote=promoted.append,
        )
        with rebuilder:
            index.insert(stream_pool[:8])
            rebuilder.kick()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not rebuilder.history():
                time.sleep(0.02)
        assert rebuilder.errors() == []
        assert rebuilder.history() and promoted == [index]
        assert index.freshness().memtable_rows == 0


# ======================================================================
# WAL-backed restart + crash recovery (the acceptance crash test)
# ======================================================================
def _scripted_ops(pool: np.ndarray):
    """Deterministic op script shared by the crashing child, the replayed
    parent, and the never-crashed reference."""
    return [
        ("insert", [300, 301], pool[:2]),
        ("delete", [5], None),
        ("insert", [302], pool[2:3]),
        ("delete", [301], None),
        ("insert", [303, 304], pool[3:5]),  # seq 5: the crash point
        ("delete", [303], None),
    ]


def _apply_ops(index: MutableIndex, ops, upto: int) -> None:
    for op, ids, vectors in ops[:upto]:
        if op == "insert":
            index.insert(vectors, ids=ids)
        else:
            index.delete(ids)


def _crash_child(wal_dir: str, data_path: str) -> None:
    """Runs in a real child process: the crash fault does os._exit(87)."""
    data = np.load(data_path)
    core = CagraIndex.build(
        data[:300], GraphBuildConfig(graph_degree=12, seed=5)
    )
    plan = json.dumps([
        {"point": "stream.wal.append", "kind": "crash", "match": {"seq": 5}},
    ])
    index = MutableIndex(core, wal_dir=wal_dir, fault_plan=plan)
    _apply_ops(index, _scripted_ops(data[300:]), upto=len(_scripted_ops(data[300:])))
    os._exit(0)  # pragma: no cover — the fault fires before we get here


class TestWalRecovery:
    def test_reopen_matches_uncrashed_run(self, tmp_path, stream_base, stream_pool,
                                          stream_queries):
        wal_dir = str(tmp_path / "wal")
        index = MutableIndex(stream_base, wal_dir=wal_dir)
        ids = index.insert(stream_pool[:5])
        index.delete([3, int(ids[1])])
        reference = index.search(stream_queries, k=10)
        index.close()
        reopened = MutableIndex.open(wal_dir)
        got = reopened.search(stream_queries, k=10)
        np.testing.assert_array_equal(reference.indices, got.indices)
        np.testing.assert_array_equal(reference.distances, got.distances)
        assert reopened.freshness().wal_seq == index.freshness().wal_seq

    def test_reopen_after_promotion_uses_checkpoint(self, tmp_path, stream_base,
                                                    stream_pool, stream_queries):
        wal_dir = str(tmp_path / "wal")
        index = MutableIndex(stream_base, wal_dir=wal_dir)
        index.insert(stream_pool[:6])
        index.repair_incremental()  # promotion checkpoints the new base
        index.delete([2])  # post-checkpoint op: replayed from the log
        reference = index.search(stream_queries, k=10)
        index.close()
        reopened = MutableIndex.open(wal_dir)
        assert reopened.freshness().base_rows == 306
        got = reopened.search(stream_queries, k=10)
        np.testing.assert_array_equal(reference.indices, got.indices)
        np.testing.assert_array_equal(reference.distances, got.distances)

    def test_open_without_checkpoint_or_base_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no checkpoint"):
            MutableIndex.open(str(tmp_path / "empty"))

    def test_crash_mid_append_replays_durable_prefix(self, tmp_path, stream_data,
                                                     stream_queries):
        """A real ``os._exit(87)`` inside the stream.wal.append window:
        replay must reproduce the never-crashed run over the durable
        prefix bitwise — the torn op (and only it) is lost."""
        wal_dir = str(tmp_path / "wal")
        data_path = str(tmp_path / "data.npy")
        np.save(data_path, stream_data)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_crash_child, args=(wal_dir, data_path))
        child.start()
        child.join(timeout=600)
        assert child.exitcode == 87  # CRASH_EXIT_CODE: died inside the window

        recovered = MutableIndex.open(wal_dir)
        # The op at seq 5 (insert 303/304) was torn: its segment exists
        # but its commit record does not, so replay drops it; ops 6+
        # never ran.
        replay = recovered.wal.replay()
        assert replay.orphan_segments == 1
        fresh = recovered.freshness()
        assert fresh.wal_seq == 4

        # Never-crashed twin applying exactly the durable prefix.
        core = CagraIndex.build(
            stream_data[:300], GraphBuildConfig(graph_degree=12, seed=5)
        )
        reference = MutableIndex(core)
        _apply_ops(reference, _scripted_ops(stream_data[300:]), upto=4)

        ref = reference.search(stream_queries, k=10)
        got = recovered.search(stream_queries, k=10)
        np.testing.assert_array_equal(ref.indices, got.indices)
        np.testing.assert_array_equal(ref.distances, got.distances)
        assert recovered.live_mask().tolist() == reference.live_mask().tolist()
        # Recovery is functional, not just equal: writes keep flowing and
        # the torn ids were never burned.
        new_ids = recovered.insert(stream_data[303:305], ids=[303, 304])
        assert new_ids.tolist() == [303, 304]


# ======================================================================
# filter_mask length contract across every adapter (satellite check)
# ======================================================================
class TestFilterMaskContractAcrossAdapters:
    KINDS = ("cagra", "hnsw", "ggnn", "ganns", "nssg", "bruteforce")

    @pytest.fixture(scope="class")
    def mask_data(self):
        return clustered_gaussian(140, 12, seed=3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_short_mask_raises_value_error(self, kind, mask_data):
        ann = build_index(kind, mask_data, degree=8, seed=1)
        short = np.ones(mask_data.shape[0] - 1, dtype=bool)
        with pytest.raises(ValueError, match="one entry per dataset row"):
            ann.search(mask_data[:2], 5, filter_mask=short)

    def test_sharded_short_mask_raises(self, mask_data):
        from repro.core.sharding import ShardedCagraIndex

        sharded = ShardedCagraIndex.build(
            mask_data, 2, GraphBuildConfig(graph_degree=8, seed=1)
        )
        with pytest.raises(ValueError, match="one entry per dataset row"):
            sharded.search(
                mask_data[:2], 5,
                filter_mask=np.ones(mask_data.shape[0] - 1, dtype=bool),
            )

    def test_cagra_post_extend_requires_grown_mask(self, mask_data):
        """After ``extend`` the mask must cover the *new* size — the old
        length fails with the same clear message."""
        core = CagraIndex.build(mask_data[:120],
                                GraphBuildConfig(graph_degree=8, seed=1))
        grown = core.extend(mask_data[120:])
        with pytest.raises(ValueError, match="one entry per dataset row"):
            grown.search(mask_data[:2], 5, filter_mask=np.ones(120, dtype=bool))
        grown.search(mask_data[:2], 5,
                     filter_mask=np.ones(grown.size, dtype=bool))


# ======================================================================
# serving layer: writes, cache invalidation, freshness, auto-rebuild
# ======================================================================
class TestServerMutability:
    def test_static_index_rejects_writes(self, stream_base):
        with CagraServer(stream_base, ServeConfig(max_wait_ms=0.5)) as server:
            with pytest.raises(ServeError, match="not mutable"):
                server.insert(np.zeros((1, 16), np.float32))
            with pytest.raises(ServeError, match="not mutable"):
                server.delete([0])

    def test_insert_delete_and_cache_invalidation(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        config = ServeConfig(max_wait_ms=0.5, cache_capacity=32)
        with CagraServer(index, config) as server:
            query = stream_pool[0]
            first = server.search(query, k=5)
            assert server.search(query, k=5).from_cache
            assigned = server.insert(stream_pool[:1])
            after_insert = server.search(query, k=5)
            # The stale cached answer (without the new row) must not be
            # served: the mutation listener bumps the generation.
            assert not after_insert.from_cache
            assert int(after_insert.indices[0]) == int(assigned[0])
            server.delete([int(assigned[0])])
            after_delete = server.search(query, k=5)
            assert not after_delete.from_cache
            assert int(assigned[0]) not in after_delete.indices.tolist()
            assert first.indices.tolist() == after_delete.indices.tolist()
            stats = server.stats()
        assert stats.inserts == 1 and stats.insert_rows == 1
        assert stats.deletes == 1 and stats.delete_rows == 1
        assert stats.tombstone_ratio == pytest.approx(0.0)

    def test_freshness_gauges_in_stats(self, stream_base, stream_pool):
        index = MutableIndex(stream_base)
        with CagraServer(index, ServeConfig(max_wait_ms=0.5)) as server:
            server.insert(stream_pool[:7])
            server.delete([0, 1, 2])
            stats = server.stats()
        assert stats.memtable_rows == 7
        assert stats.tombstone_ratio == pytest.approx(3 / 300)
        assert "freshness" in stats.summary()

    def test_auto_rebuild_promotes_through_swap(self, stream_base, stream_pool):
        import time

        index = MutableIndex(stream_base)
        config = ServeConfig(
            max_wait_ms=0.5, auto_rebuild=True,
            rebuild_interval_s=0.05, rebuild_min_memtable_rows=4,
        )
        with CagraServer(index, config) as server:
            assert server.rebuilder is not None
            server.insert(stream_pool[:8])
            server.rebuilder.kick()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not server.rebuilder.history():
                time.sleep(0.02)
            assert server.rebuilder.errors() == []
            assert server.rebuilder.history()
            stats = server.stats()
            assert stats.rebuilds_incremental + stats.rebuilds_full >= 1
            assert stats.index_swaps >= 1
            assert stats.last_promotion_ms > 0.0
            assert index.freshness().memtable_rows == 0

    def test_static_index_gets_no_rebuilder(self, stream_base):
        config = ServeConfig(max_wait_ms=0.5, auto_rebuild=True)
        with CagraServer(stream_base, config) as server:
            assert server.rebuilder is None


# ======================================================================
# the acceptance integration test: 500+ deterministic mixed ops with
# mid-stream rebuild + promotion
# ======================================================================
class TestMixedStreamIntegration:
    TOTAL_OPS = 520
    RECALL_FLOOR = 0.95  # within 0.05 of the exact oracle

    def _oracle_recall(self, server, index, queries, k=10) -> float:
        oracle = BruteForceIndex(index.dataset, metric=index.metric)
        truth = oracle.search(queries, k, filter_mask=index.live_mask())
        served = np.stack([
            server.search(query, k=k).indices for query in queries
        ])
        return recall_of(served, truth.indices)

    def test_lifecycle_contract_over_500_ops(self, stream_base, stream_data,
                                             stream_queries):
        pool = stream_data[300:]
        index = MutableIndex(stream_base)
        config = ServeConfig(
            max_wait_ms=0.5, cache_capacity=64, default_k=10,
            auto_rebuild=True, rebuild_interval_s=60.0,  # we drive run_once
            rebuild_min_memtable_rows=8,
        )
        rng = np.random.default_rng(42)
        deleted: set[int] = set()
        live: list[int] = list(range(300))
        next_pool = 0
        promotions = 0

        with CagraServer(index, config) as server:
            rebuilder = server.rebuilder
            assert rebuilder is not None
            recalls = {"before": self._oracle_recall(index=index, server=server,
                                                     queries=stream_queries)}
            for op_number in range(self.TOTAL_OPS):
                u = float(rng.random())
                if u < 0.10 and next_pool < pool.shape[0]:
                    vector = pool[next_pool]
                    next_pool += 1
                    assigned = int(server.insert(vector[None, :])[0])
                    live.append(assigned)
                    # (b) every acked insert is rank-1 findable at once.
                    hit = server.search(vector, k=1)
                    assert int(hit.indices[0]) == assigned, (
                        f"op {op_number}: fresh insert {assigned} not rank-1"
                    )
                elif u < 0.18 and len(live) > 250:
                    victim = live.pop(int(rng.integers(0, len(live))))
                    server.delete([victim])
                    deleted.add(victim)
                else:
                    query = stream_queries[op_number % stream_queries.shape[0]]
                    result = server.search(query, k=10)
                    found = {int(i) for i in result.indices if int(i) != MASK}
                    # (a) no deleted id in any result after its acked delete.
                    assert not (found & deleted), (
                        f"op {op_number}: deleted ids {found & deleted} served"
                    )
                # Mid-stream maintenance with atomic promotion while the
                # same server keeps answering.
                if op_number == 200:
                    report = rebuilder.run_once(force="incremental")
                    assert report is not None and report.epoch == 1
                    promotions += 1
                    recalls["during"] = self._oracle_recall(
                        index=index, server=server, queries=stream_queries
                    )
                elif op_number == 380:
                    report = rebuilder.run_once(force="full")
                    assert report is not None and report.epoch == 2
                    promotions += 1

            recalls["after"] = self._oracle_recall(
                index=index, server=server, queries=stream_queries
            )
            stats = server.stats()

        ops = stats.completed + stats.inserts + stats.deletes
        assert ops >= self.TOTAL_OPS
        assert promotions == 2 and stats.index_swaps >= 2
        assert index.freshness().epoch == 2
        # (c) recall stays within 0.05 of the live-row oracle throughout.
        for phase, measured in recalls.items():
            assert measured >= self.RECALL_FLOOR, (phase, measured, recalls)
        # Post-run cross-check: nothing deleted is searchable anywhere.
        final_live = index.live_mask()
        assert not any(final_live[d] for d in deleted)

    def test_mixed_loadgen_is_seed_deterministic(self, stream_base, stream_pool,
                                                 stream_queries):
        def run(seed):
            index = MutableIndex(stream_base)
            with CagraServer(index, ServeConfig(max_wait_ms=0.5)) as server:
                report = run_mixed_closed_loop(
                    server, stream_queries, stream_pool,
                    num_clients=2, ops_per_client=40,
                    write_fraction=0.4, seed=seed,
                )
            return report

        first, second = run(9), run(9)
        assert first.count("ok") == len(first)
        # Per-client op streams are a pure function of (seed, client).
        assert first.count("ok", "insert") == second.count("ok", "insert")
        assert first.count("ok", "delete") == second.count("ok", "delete")
        assert sorted(first.answers("insert")[1][:, 0]) == sorted(
            second.answers("insert")[1][:, 0]
        )
