"""``MutableIndex`` — a live, updatable view over a frozen ANN index.

The CAGRA artifact stays immutable; mutability is layered on top:

* **inserts** buffer in an exact brute-force memtable
  (:class:`~repro.stream.memtable.ExactMemtable`) and are searchable the
  moment ``insert`` returns — results merge with the base graph's via the
  standard ``normalize_results`` machinery;
* **deletes** are tombstones AND-ed into the caller's ``filter_mask`` on
  the base leg (zero graph surgery on the hot path) and live-flag flips
  on the memtable leg;
* **durability** is an optional write-ahead log
  (:class:`~repro.stream.wal.WriteAheadLog`): every mutation is logged
  before it becomes visible, and :meth:`MutableIndex.open` replays the
  log so a restart loses at most the op torn by the crash;
* **maintenance** (:meth:`repair_incremental` via ``CagraIndex.extend``,
  :meth:`rebuild_full` via a fresh build) runs its heavy work *outside*
  the index lock and promotes atomically under it — searches in flight
  keep their immutable snapshot, the next search sees the new base.

Id space: every row has a stable external id (assigned at insert,
monotonic).  ``size`` / ``dataset`` / ``filter_mask`` are all in this id
space — ``dataset`` row *i* is the vector for id *i* (rows of
compacted-away deleted ids are zeros and excluded by :meth:`live_mask`),
so the standard length contract ``filter_mask.shape == (size,)`` holds
unchanged.

Thread-safety: every public method is safe to call from any thread.  All
state is guarded by one lock; search copies what it needs under the lock
and computes outside it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api.adapters import AnnIndexAdapter, as_ann_index
from repro.api.instrumentation import stage_timer
from repro.api.results import SearchResult, normalize_results
from repro.core.config import GraphBuildConfig
from repro.core.graph import INDEX_MASK, FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.validation import validate_request
from repro.stream.memtable import ExactMemtable
from repro.stream.wal import WriteAheadLog

__all__ = ["MutableIndex", "StreamFreshness", "MaintenanceReport"]

#: Sliding window of recent searches used to measure query rate/cost.
_COST_WINDOW = 512


@dataclass(frozen=True)
class StreamFreshness:
    """Snapshot of how far the served base index lags the write stream."""

    base_rows: int  # rows in the base graph (incl. tombstoned)
    tombstone_rows: int  # base rows deleted but still in the graph
    memtable_rows: int  # buffered rows (live or not) awaiting drain
    memtable_live: int  # buffered rows still live
    live_rows: int  # total searchable rows right now
    id_capacity: int  # external id space size (== MutableIndex.size)
    epoch: int  # promotions so far
    wal_seq: int  # last durable op sequence (0 without a WAL)
    query_rate_qps: float  # measured over the recent search window
    search_seconds_per_query: float  # measured mean per-query latency

    @property
    def tombstone_ratio(self) -> float:
        return self.tombstone_rows / self.base_rows if self.base_rows else 0.0


@dataclass(frozen=True)
class MaintenanceReport:
    """What one repair/rebuild actually did and cost (measured)."""

    action: str  # "incremental" | "full"
    rows_folded: int  # rows moved from memtable into the base
    rows_built: int  # rows the heavy step processed
    build_seconds: float  # extend/build time (off the serving path)
    promote_seconds: float  # time under the lock at promotion
    epoch: int  # epoch after promotion
    stages: tuple = ()  # on_stage events captured from the heavy step


class MutableIndex:
    """Mutable insert/delete/search lifecycle over an ``AnnIndex`` base."""

    def __init__(
        self,
        base,
        *,
        wal_dir: str | None = None,
        wal_fsync: bool = True,
        fault_plan: str = "",
        num_sms: int = 108,
        _wal: WriteAheadLog | None = None,
        _row_ids: np.ndarray | None = None,
        _tombstones: np.ndarray | None = None,
        _next_id: int | None = None,
    ):
        base = as_ann_index(base, num_sms=num_sms)
        self._num_sms = num_sms
        self._dim = int(base.dim)
        self._metric = str(base.metric)
        self._lock = threading.Lock()
        self._base = base
        n = int(base.size)
        if _row_ids is not None:
            self._row_ids = np.asarray(_row_ids, dtype=np.int64)
        else:
            self._row_ids = np.arange(n, dtype=np.int64)
        if self._row_ids.shape != (n,):
            raise ValueError("row_ids must have one entry per base row")
        if _tombstones is not None:
            self._tombstones = np.asarray(_tombstones, dtype=bool).copy()
        else:
            self._tombstones = np.zeros(n, dtype=bool)
        if self._tombstones.shape != (n,):
            raise ValueError("tombstones must have one entry per base row")
        self._base_pos = {int(ext): row for row, ext in enumerate(self._row_ids)}
        self._memtable = ExactMemtable(self._dim, self._metric)
        self._next_id = (
            int(_next_id)
            if _next_id is not None
            else (int(self._row_ids.max()) + 1 if n else 0)
        )
        self._epoch = 0
        self._maintenance_active = False
        self._costs = deque(maxlen=_COST_WINDOW)  # (monotonic, queries, seconds)
        self._on_mutation = None
        if _wal is not None:
            self._wal = _wal
        elif wal_dir is not None:
            self._wal = WriteAheadLog(wal_dir, fsync=wal_fsync, fault_plan=fault_plan)
        else:
            self._wal = None
        if self._wal is not None and _wal is None:
            # Fresh WAL attachment: fold the starting state into a
            # checkpoint so replay always has a base to stand on.
            with self._lock:
                self._checkpoint_locked()

    # ------------------------------------------------------------------
    # restart / replay
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        wal_dir: str,
        *,
        base=None,
        wal_fsync: bool = True,
        fault_plan: str = "",
        num_sms: int = 108,
    ) -> "MutableIndex":
        """Recover a mutable index from its WAL directory.

        Loads the latest checkpoint (or starts from ``base`` when the
        directory is fresh) and replays every committed op after it.
        Loss is bounded to the op whose commit record the crash tore.
        """
        wal = WriteAheadLog(wal_dir, fsync=wal_fsync, fault_plan=fault_plan)
        replay = wal.replay()
        if replay.checkpoint is not None:
            cp = replay.checkpoint
            core = CagraIndex(
                cp["dataset"],
                FixedDegreeGraph(cp["neighbors"]),
                metric=str(cp["metric"]),
            )
            index = cls(
                core,
                num_sms=num_sms,
                _wal=wal,
                _row_ids=cp["row_ids"],
                _tombstones=cp["tombstones"],
                _next_id=int(cp["next_id"]),
            )
        elif base is not None:
            index = cls(base, num_sms=num_sms, _wal=wal)
            with index._lock:
                index._checkpoint_locked()
        else:
            raise ValueError(f"no checkpoint under {wal_dir!r} and no base given")
        for record in replay.records:
            if record.op == "insert":
                vectors = wal.load_segment(record)
                index._apply_insert(np.asarray(record.ids, dtype=np.int64), vectors)
            else:
                index._apply_delete(
                    np.asarray(record.ids, dtype=np.int64), strict=False
                )
        return index

    # ------------------------------------------------------------------
    # AnnIndex surface
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return "mutable"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def metric(self) -> str:
        return self._metric

    @property
    def num_shards(self) -> int:
        return 1

    @property
    def size(self) -> int:
        """External id-space size (== ``dataset`` rows; see module doc)."""
        with self._lock:
            return int(self._next_id)

    @property
    def base_index(self):
        """The current immutable base adapter (atomically swapped)."""
        with self._lock:
            return self._base

    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    @property
    def dataset(self) -> np.ndarray:
        """Vectors indexed by external id (compacted dead ids are zeros)."""
        with self._lock:
            out = np.zeros((self._next_id, self._dim), dtype=np.float32)
            base_dataset = getattr(self._base, "dataset", None)
            if base_dataset is not None and self._row_ids.size:
                out[self._row_ids] = np.asarray(base_dataset, dtype=np.float32)
            count = self._memtable.num_rows
            if count:
                ids, vectors, _ = self._memtable.prefix(count)
                out[ids] = vectors
        return out

    def live_mask(self) -> np.ndarray:
        """Bool mask over the id space: True where the id is searchable."""
        with self._lock:
            mask = np.zeros(self._next_id, dtype=bool)
            if self._row_ids.size:
                mask[self._row_ids[~self._tombstones]] = True
            count = self._memtable.num_rows
            if count:
                ids, _, live = self._memtable.prefix(count)
                mask[ids[live]] = True
        return mask

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, vectors, ids=None) -> np.ndarray:
        """Make ``vectors`` searchable immediately; returns their ids.

        Logged to the WAL (when attached) *before* becoming visible, so
        an acknowledged insert survives restart.  Explicit ``ids`` must
        be fresh (never used before); by default ids are allocated
        monotonically.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self._dim:
            raise ValueError(
                f"vectors have dim {vectors.shape[1]}, index has {self._dim}"
            )
        with self._lock:
            if ids is None:
                assigned = np.arange(
                    self._next_id, self._next_id + vectors.shape[0], dtype=np.int64
                )
            else:
                assigned = np.asarray(ids, dtype=np.int64)
                if assigned.shape[0] != vectors.shape[0]:
                    raise ValueError("ids and vectors must have the same length")
                if len(set(int(i) for i in assigned)) != assigned.shape[0]:
                    raise ValueError("duplicate ids in one insert batch")
                for ext in assigned:
                    if int(ext) < 0:
                        raise ValueError("ids must be non-negative")
                    if int(ext) in self._base_pos or self._memtable.contains(int(ext)):
                        raise ValueError(f"id {int(ext)} already exists")
            if self._wal is not None:
                self._wal.append_insert(assigned, vectors)
            self._insert_locked(assigned, vectors)
            callback = self._on_mutation
        if callback is not None:
            callback()
        return assigned

    def delete(self, ids, strict: bool = True) -> int:
        """Tombstone ``ids``; they never appear in results again.

        Returns the number of rows newly deleted.  Unknown or already
        deleted ids raise ``KeyError`` unless ``strict=False``.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        with self._lock:
            if strict:
                for ext in ids:
                    key = int(ext)
                    row = self._base_pos.get(key)
                    alive = (
                        row is not None and not self._tombstones[row]
                    ) or self._memtable.is_live(key)
                    if not alive:
                        raise KeyError(f"id {key} does not exist or was deleted")
            if self._wal is not None:
                self._wal.append_delete(ids)
            removed = self._delete_locked(ids)
            callback = self._on_mutation
        if callback is not None and removed:
            callback()
        return removed

    def _insert_locked(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        self._memtable.insert(ids, vectors)
        self._next_id = max(self._next_id, int(ids.max()) + 1)

    def _delete_locked(self, ids: np.ndarray) -> int:
        removed = 0
        for ext in ids:
            key = int(ext)
            row = self._base_pos.get(key)
            if row is not None and not self._tombstones[row]:
                self._tombstones[row] = True
                removed += 1
            elif self._memtable.delete(key):
                removed += 1
        return removed

    def _apply_insert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Replay path: apply without re-logging; skip already-known ids
        (a checkpoint may already have folded the op in)."""
        with self._lock:
            fresh = np.array(
                [
                    int(ext) not in self._base_pos
                    and not self._memtable.contains(int(ext))
                    for ext in ids
                ],
                dtype=bool,
            )
            if fresh.any():
                self._insert_locked(ids[fresh], np.atleast_2d(vectors)[fresh])
            self._next_id = max(self._next_id, int(ids.max()) + 1)

    def _apply_delete(self, ids: np.ndarray, strict: bool = False) -> int:
        with self._lock:
            return self._delete_locked(ids)

    def set_mutation_listener(self, callback) -> None:
        """``callback()`` fires after every visible state change (insert,
        delete, promotion) — the server hooks cache invalidation here.
        Called outside the index lock."""
        with self._lock:
            self._on_mutation = callback

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config=None,
        mode: str = "auto",
        on_stage=None,
    ) -> SearchResult:
        """Merged base-graph + memtable search (standard result contract).

        ``filter_mask`` is over the external id space (length ``size``);
        tombstones are AND-ed in on the base leg so deleted rows never
        surface, and the caller's mask applies to memtable rows too.  When
        fewer than ``k`` live rows pass the mask (down to none: every
        admitted id deleted) the tail is ``INDEX_MASK`` padding.
        """
        started = time.perf_counter()
        with self._lock:
            base = self._base
            row_ids = self._row_ids
            tombstones = self._tombstones.copy()
            snapshot = self._memtable.snapshot()
            id_capacity = self._next_id
        queries, mask = validate_request(
            queries, k, self._dim, size=id_capacity, filter_mask=filter_mask
        )
        with stage_timer(on_stage, "stream.search") as stage:
            base_ids, base_dists, base_counters = self._search_base(
                base, row_ids, tombstones, queries, k, mask, config, mode, on_stage
            )
            mem_ids, mem_dists = snapshot.search(queries, k, allowed_ids=mask)
            merged_ids = np.hstack([base_ids, mem_ids])
            merged_dists = np.hstack([base_dists, mem_dists])
            order = np.argsort(merged_dists, axis=1, kind="stable")
            top_ids = np.take_along_axis(merged_ids, order, axis=1)[:, :k]
            top_dists = np.take_along_axis(merged_dists, order, axis=1)[:, :k]
            indices, distances = normalize_results(top_ids, top_dists, k)
            counters = {
                "algo": "stream",
                "memtable_rows": len(snapshot),
                "tombstone_rows": int(tombstones.sum()),
                "distance_computations": int(
                    base_counters.get("distance_computations", 0)
                )
                + int(queries.shape[0]) * len(snapshot),
            }
            stage.counters = counters
        elapsed = time.perf_counter() - started
        with self._lock:
            self._costs.append((time.monotonic(), int(queries.shape[0]), elapsed))
        return SearchResult(indices=indices, distances=distances, counters=counters)

    def _search_base(
        self, base, row_ids, tombstones, queries, k, mask, config, mode, on_stage
    ):
        """Base-graph leg: tombstones AND caller mask, ids mapped to the
        external id space.  Returns empty columns when no base row may
        answer (every row tombstoned or masked out)."""
        num_queries = queries.shape[0]
        empty = (
            np.empty((num_queries, 0), dtype=np.int64),
            np.empty((num_queries, 0), dtype=np.float64),
            {},
        )
        if row_ids.size == 0:
            return empty
        allowed = ~tombstones
        if mask is not None:
            allowed &= mask[row_ids]
        if not allowed.any():
            return empty
        base_mask = None if allowed.all() else allowed
        if isinstance(base, AnnIndexAdapter):
            result = base.search(
                queries, k, filter_mask=base_mask, config=config, mode=mode,
                on_stage=on_stage,
            )
        else:
            result = base.search(queries, k, filter_mask=base_mask)
        local = result.indices.astype(np.int64)
        valid = local != int(INDEX_MASK)
        ext = np.where(
            valid,
            row_ids[np.clip(local, 0, row_ids.shape[0] - 1)],
            np.int64(INDEX_MASK),
        )
        dists = result.distances.astype(np.float64)
        dists = np.where(valid, dists, np.inf)
        return ext, dists, dict(result.counters or {})

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def freshness(self) -> StreamFreshness:
        with self._lock:
            base_rows = int(self._row_ids.shape[0])
            tombstone_rows = int(self._tombstones.sum())
            memtable_rows = self._memtable.num_rows
            memtable_live = self._memtable.num_live
            costs = list(self._costs)
            epoch = self._epoch
            wal_seq = self._wal.last_seq if self._wal is not None else 0
            id_capacity = int(self._next_id)
        queries = sum(c[1] for c in costs)
        seconds = sum(c[2] for c in costs)
        per_query = seconds / queries if queries else 0.0
        if len(costs) >= 2 and costs[-1][0] > costs[0][0]:
            rate = queries / (costs[-1][0] - costs[0][0])
        else:
            rate = 0.0
        return StreamFreshness(
            base_rows=base_rows,
            tombstone_rows=tombstone_rows,
            memtable_rows=memtable_rows,
            memtable_live=memtable_live,
            live_rows=(base_rows - tombstone_rows) + memtable_live,
            id_capacity=id_capacity,
            epoch=epoch,
            wal_seq=wal_seq,
            query_rate_qps=rate,
            search_seconds_per_query=per_query,
        )

    # ------------------------------------------------------------------
    # maintenance (heavy work outside the lock, atomic promotion under it)
    # ------------------------------------------------------------------
    def _core_index(self, base) -> CagraIndex:
        inner = getattr(base, "inner", base)
        if not isinstance(inner, CagraIndex):
            raise TypeError(
                "maintenance needs a CagraIndex base "
                f"(got {type(inner).__name__}); memtable-merge still works"
            )
        return inner

    def _begin_maintenance(self):
        with self._lock:
            if self._maintenance_active:
                raise RuntimeError("a repair/rebuild is already in flight")
            self._maintenance_active = True

    def _abort_maintenance(self):
        with self._lock:
            self._maintenance_active = False

    def repair_incremental(
        self, *, itopk: int = 0, seed: int = 0, on_stage=None
    ) -> MaintenanceReport:
        """Drain the memtable into the base via ``CagraIndex.extend``.

        Tombstones stay in place (still cheap to filter); the memtable
        prefix captured at entry is folded into the graph.  Writes that
        arrive during the extend stay in the memtable; deletes that hit a
        draining row are carried over as tombstones at promotion.
        """
        self._begin_maintenance()
        try:
            with self._lock:
                core = self._core_index(self._base)
                count = self._memtable.num_rows
                ids, vectors, live = self._memtable.prefix(count)
            drain_ids = ids[live]
            drain_vectors = vectors[live]
            build_started = time.perf_counter()
            stages = []

            def record_stage(name, seconds, counters):
                stages.append((name, seconds, counters))
                if on_stage is not None:
                    on_stage(name, seconds, counters)

            if drain_ids.size:
                new_core = core.extend(
                    drain_vectors, itopk=itopk, seed=seed, on_stage=record_stage
                )
            else:
                new_core = core
            build_seconds = time.perf_counter() - build_started
            promote_started = time.perf_counter()
            with self._lock:
                if drain_ids.size:
                    # Deletes may have landed on draining rows mid-extend:
                    # read their *current* liveness for the new tombstones.
                    still_live = np.array(
                        [self._memtable.is_live(int(ext)) for ext in drain_ids],
                        dtype=bool,
                    )
                    self._base = as_ann_index(new_core, num_sms=self._num_sms)
                    start = self._row_ids.shape[0]
                    self._row_ids = np.concatenate([self._row_ids, drain_ids])
                    self._tombstones = np.concatenate(
                        [self._tombstones, ~still_live]
                    )
                    for offset, ext in enumerate(drain_ids):
                        self._base_pos[int(ext)] = start + offset
                self._memtable.drop_prefix(count)
                self._epoch += 1
                epoch = self._epoch
                self._checkpoint_locked()
                callback = self._on_mutation
            promote_seconds = time.perf_counter() - promote_started
        finally:
            self._abort_maintenance()
        if callback is not None:
            callback()
        return MaintenanceReport(
            action="incremental",
            rows_folded=int(count),
            rows_built=int(drain_ids.size),
            build_seconds=build_seconds,
            promote_seconds=promote_seconds,
            epoch=epoch,
            stages=tuple(stages),
        )

    def rebuild_full(
        self,
        *,
        build_config: GraphBuildConfig | None = None,
        on_stage=None,
    ) -> MaintenanceReport:
        """Rebuild the base graph from every live row, dropping tombstones.

        The build runs outside the lock; promotion installs the compacted
        base, clears tombstones, and empties the drained memtable prefix
        atomically.
        """
        self._begin_maintenance()
        try:
            with self._lock:
                core = self._core_index(self._base)
                live_base = ~self._tombstones
                base_ids = self._row_ids[live_base]
                base_vectors = np.asarray(core.dataset)[live_base]
                count = self._memtable.num_rows
                mem_ids, mem_vectors, mem_live = self._memtable.prefix(count)
                config = (
                    build_config
                    or core.build_config
                    or GraphBuildConfig(graph_degree=core.degree)
                )
            snap_ids = np.concatenate([base_ids, mem_ids[mem_live]])
            snap_vectors = np.vstack(
                [base_vectors.astype(np.float32), mem_vectors[mem_live]]
            )
            if snap_ids.shape[0] < 2:
                raise RuntimeError("fewer than 2 live rows; nothing to rebuild")
            build_started = time.perf_counter()
            stages = []

            def record_stage(name, seconds, counters):
                stages.append((name, seconds, counters))
                if on_stage is not None:
                    on_stage(name, seconds, counters)

            new_core = CagraIndex.build(snap_vectors, config)
            build_seconds = time.perf_counter() - build_started
            record_stage(
                "stream.rebuild",
                build_seconds,
                {"rows": int(snap_ids.shape[0]), "degree": int(config.graph_degree)},
            )
            promote_started = time.perf_counter()
            with self._lock:
                # Rows deleted while the build ran become tombstones in
                # the fresh base (their vectors are already baked in).
                still_live = np.array(
                    [self._is_live_locked(int(ext)) for ext in snap_ids], dtype=bool
                )
                self._base = as_ann_index(new_core, num_sms=self._num_sms)
                self._row_ids = snap_ids.astype(np.int64)
                self._tombstones = ~still_live
                self._base_pos = {
                    int(ext): row for row, ext in enumerate(snap_ids)
                }
                self._memtable.drop_prefix(count)
                self._epoch += 1
                epoch = self._epoch
                self._checkpoint_locked()
                callback = self._on_mutation
            promote_seconds = time.perf_counter() - promote_started
        finally:
            self._abort_maintenance()
        if callback is not None:
            callback()
        return MaintenanceReport(
            action="full",
            rows_folded=int(count),
            rows_built=int(snap_ids.shape[0]),
            build_seconds=build_seconds,
            promote_seconds=promote_seconds,
            epoch=epoch,
            stages=tuple(stages),
        )

    def _is_live_locked(self, ext: int) -> bool:
        row = self._base_pos.get(ext)
        if row is not None:
            return not bool(self._tombstones[row])
        return self._memtable.is_live(ext)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Fold current base state into the WAL checkpoint (no-op without
        a WAL); mutations since the last promotion stay in the log."""
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        if self._wal is None:
            return
        inner = getattr(self._base, "inner", self._base)
        if not isinstance(inner, CagraIndex):
            raise TypeError("WAL checkpoints need a CagraIndex base")
        self._wal.checkpoint(
            {
                "dataset": np.asarray(inner.dataset),
                "neighbors": inner.graph.neighbors,
                "metric": np.array(inner.metric),
                "row_ids": self._row_ids,
                "tombstones": self._tombstones,
            },
            next_id=self._next_id,
        )

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __repr__(self) -> str:
        f = self.freshness()
        return (
            f"MutableIndex(live={f.live_rows}, base={f.base_rows}, "
            f"memtable={f.memtable_rows}, tombstones={f.tombstone_rows}, "
            f"epoch={f.epoch})"
        )

