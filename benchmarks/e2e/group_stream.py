"""Mixed read/write phases on a WAL-backed ``MutableIndex``.

Closed loop, one client: a seeded 70 % search / 20 % single-row insert /
10 % delete sequence (exactly that mix in every round).  Flush policy, fixed: ``wal_fsync=True`` — every
acknowledged write has been fsynced (an insert fsyncs its payload segment
and its commit record, a delete its commit record).  The phase is sized in
operations, not seconds, so memtable rows, tombstones and WAL records
repeat exactly for a seed.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from harness import Context
from sizing import P90_SAMPLES, per_round
from stats import Rounds, median, tail

from repro.api import BruteForceIndex
from repro.stream import MutableIndex

#: Ops per ten: every round has exactly this mix (in a seeded order), so
#: rounds differ by the machine's speed and not by their share of searches.
SEARCHES, INSERTS, DELETES = 7, 2, 1
#: Searches at each end of the lap compared by ``search_drift_ratio``.
DRIFT_WINDOW = 0.25


class StreamGroup:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.wal_dir = ctx.out_dir / "wal"
        self.rng = np.random.default_rng([ctx.seed, 0x57])
        self.query_rows = self.rng.permutation(ctx.profile.num_queries)
        self.searches = 0
        self.live = list(range(ctx.profile.rows))  # ids that may be deleted
        self.inserted: dict[int, int] = {}  # live inserted id -> pool row
        self.deleted = np.zeros(ctx.profile.rows + ctx.profile.insert_pool, dtype=bool)
        self.next_pool = 0
        self.search_ms = Rounds()
        self.write_ms = Rounds()  # inserts and deletes pooled
        self.insert_ms: list[float] = []
        self.delete_ms: list[float] = []
        self.segment_ops_per_s = Rounds()  # one value per round
        self.batch_s = Rounds()  # seconds per batched search, one per round
        self.user_bytes = 0

    def __enter__(self):
        self.mutable = MutableIndex(
            self.ctx.index, wal_dir=str(self.wal_dir), wal_fsync=True
        )
        self.start_seq = self.mutable.freshness().wal_seq
        return self

    def __exit__(self, *exc):
        self.mutable.close()

    # ------------------------------------------------------------------
    def _check_answer(self, indices, what: str) -> None:
        """Id contract over the whole id space, and nothing deleted."""
        id_space = self.deleted.shape[0]
        self.ctx.check_ids(indices, size=id_space, what=what)
        ids = indices[indices < id_space]
        self.ctx.checks.fail(f"{what} returned a deleted id",
                             int(np.count_nonzero(self.deleted[ids])))

    def _search(self, row: int) -> float:
        ctx = self.ctx
        began = time.perf_counter()
        with ctx.tracer.span("stream.search", request=f"s{self.searches}"):
            result = self.mutable.search(
                ctx.queries[row], ctx.k, config=ctx.search_config
            )
        elapsed = (time.perf_counter() - began) * 1e3
        self._check_answer(result.indices, "stream search")
        return elapsed

    def _insert(self) -> float:
        ctx = self.ctx
        vector = ctx.pool[self.next_pool]
        began = time.perf_counter()
        with ctx.tracer.span("stream.insert"):
            assigned = self.mutable.insert(vector)
        elapsed = (time.perf_counter() - began) * 1e3
        new_id = int(assigned[0])
        self.inserted[new_id] = self.next_pool
        self.live.append(new_id)
        self.next_pool += 1
        self.user_bytes += vector.nbytes
        ctx.checks.ops()
        return elapsed

    def _delete(self) -> float:
        ctx = self.ctx
        slot = int(self.rng.integers(len(self.live)))
        victim = self.live[slot]
        self.live[slot] = self.live[-1]
        self.live.pop()
        began = time.perf_counter()
        with ctx.tracer.span("stream.delete"):
            removed = self.mutable.delete(victim)
        elapsed = (time.perf_counter() - began) * 1e3
        self.deleted[victim] = True
        self.inserted.pop(victim, None)
        self.user_bytes += 8
        ctx.checks.ops()
        ctx.checks.fail("delete of a live id removed nothing", int(removed != 1))
        return elapsed

    def lap(self, rounds: int) -> None:
        ctx = self.ctx
        tens = ctx.profile.stream_ops_per_round // 10
        if ctx.trace:
            # Enough inserts over the lap for their p90 (and so enough
            # searches for their p95).
            tens = max(tens, per_round(-(-P90_SAMPLES // INSERTS), rounds))
        sequence = self.rng.permutation(
            np.repeat(["search", "insert", "delete"],
                      [tens * n for n in (SEARCHES, INSERTS, DELETES)])
        )
        self.search_ms.start()
        self.write_ms.start()
        with ctx.clock("stream_ops"):
            began = time.perf_counter()
            for op in sequence:
                if op == "search":
                    row = self.query_rows[self.searches % len(self.query_rows)]
                    self.searches += 1
                    self.search_ms.add(self._search(row))
                elif op == "insert":
                    self.insert_ms.append(self._insert())
                    self.write_ms.add(self.insert_ms[-1])
                else:
                    self.delete_ms.append(self._delete())
                    self.write_ms.add(self.delete_ms[-1])
            self.segment_ops_per_s.single(len(sequence) / (time.perf_counter() - began))
        # The read path in batch form: base fast path under the tombstone
        # mask plus the exact memtable scan, on the rows live right now.
        rows = np.arange(ctx.profile.oracle_queries)
        with ctx.clock("stream_batch"):
            began = time.perf_counter()
            with ctx.tracer.span("stream.search_batch"):
                result = self.mutable.search(
                    ctx.queries[rows], ctx.k, config=ctx.search_config
                )
            self.batch_s.single(time.perf_counter() - began)
        self._check_answer(result.indices, "stream batch search")

    # ------------------------------------------------------------------
    def _check_visibility(self, when: str, memtable_exact: bool = True) -> None:
        """Nothing deleted is visible, and (while inserts sit in the exact
        memtable) every acked live insert is its own nearest neighbour.
        Once a repair has folded them into the graph they are found as
        well as anything else is: approximately."""
        ctx = self.ctx
        live_mask = self.mutable.live_mask()
        ctx.checks.require(
            not np.any(live_mask & self.deleted[: live_mask.shape[0]]),
            f"{when}: a deleted id is live",
        )
        if self.inserted and memtable_exact:
            ids = np.fromiter(self.inserted, dtype=np.int64)
            vectors = ctx.pool[[self.inserted[int(i)] for i in ids]]
            result = self.mutable.search(vectors, ctx.k, config=ctx.search_config)
            ctx.checks.ops(len(ids))
            ctx.checks.fail(
                f"{when}: acked insert not found at rank 1",
                int(np.count_nonzero(result.indices[:, 0] != ids)),
            )

    def _oracle_recall(self) -> float:
        """Recall against exact search over the rows live right now."""
        ctx = self.ctx
        rows = np.arange(ctx.profile.oracle_queries)
        oracle = BruteForceIndex(self.mutable.dataset, metric=ctx.index.metric)
        truth = oracle.search(
            ctx.queries[rows], ctx.k, filter_mask=self.mutable.live_mask()
        ).indices
        found = self.mutable.search(ctx.queries[rows], ctx.k, config=ctx.search_config)
        self._check_answer(found.indices, "stream batch search")
        hits = sum(
            len(np.intersect1d(f, t)) for f, t in zip(found.indices, truth)
        )
        return hits / truth.size

    def finish(self) -> None:
        """Visibility and recall on the live state, then close and reopen
        from the WAL and require the same state back."""
        ctx = self.ctx
        self.freshness = self.mutable.freshness()
        self.lap_user_bytes = self.user_bytes
        self.wal_records = self.freshness.wal_seq - self.start_seq
        self.wal_bytes = sum(
            entry.stat().st_size
            for entry in os.scandir(self.wal_dir)
            if entry.name == "wal.jsonl" or entry.name.startswith("seg-")
        )
        with ctx.clock("stream_checks"):
            self._check_visibility("before reopen")
            self.oracle_recall = self._oracle_recall()
            # 0.97-1.00 over some fifty seeds, on 256 queries: a floor, far
            # enough below that no seed trips it.
            ctx.checks.require(
                self.oracle_recall >= 0.90,
                f"stream recall vs live oracle {self.oracle_recall:.4f} < 0.90",
            )
        with ctx.clock("stream_recovery"):
            live_before = self.mutable.live_mask()
            self.mutable.close()
            began = time.perf_counter()
            with ctx.tracer.span("stream.recover"):
                self.mutable = MutableIndex.open(str(self.wal_dir), base=ctx.index)
            self.recovery_s = time.perf_counter() - began
            ctx.checks.require(
                np.array_equal(self.mutable.live_mask(), live_before),
                "reopened live_mask differs from the pre-close one",
            )
            self._check_visibility("after reopen")

    # ------------------------------------------------------------------
    # traced run only
    # ------------------------------------------------------------------
    def sweeps(self) -> None:
        ctx, put = self.ctx, self.ctx.results.put
        with ctx.clock("stream_repair"):
            with ctx.tracer.span("stream.repair_incremental"):
                report = self.mutable.repair_incremental(seed=ctx.seed)
            put("stream.repair_s", report.build_seconds + report.promote_seconds,
                report.rows_built)
            put("stream.repair_rows_per_s",
                report.rows_built / (report.build_seconds + report.promote_seconds),
                report.rows_built)
            post_ms = [
                self._search(row) for row in range(ctx.profile.oracle_queries // 4)
            ]
            put("stream.post_repair_search_p50_ms", median(post_ms), len(post_ms))
            put("stream.recall_post_repair", self._oracle_recall(),
                ctx.profile.oracle_queries)
            self._check_visibility("after repair", memtable_exact=False)

        # One writer and one reader thread on the same index.
        deadline = time.perf_counter() + ctx.seconds["concurrent_rw"]
        write_ms: list[float] = []
        read_ms: list[float] = []

        def writer() -> None:
            turn = 0
            while time.perf_counter() < deadline and self.next_pool < len(ctx.pool):
                write_ms.append(self._delete() if turn % 3 == 2 else self._insert())
                turn += 1

        def reader() -> None:
            row = 0
            while time.perf_counter() < deadline:
                # ids may be deleted between the search and the check, so
                # only the id contract is checked here, not visibility.
                began = time.perf_counter()
                result = self.mutable.search(
                    ctx.queries[row % ctx.profile.num_queries], ctx.k,
                    config=ctx.search_config,
                )
                read_ms.append((time.perf_counter() - began) * 1e3)
                ctx.check_ids(result.indices, size=self.deleted.shape[0],
                              what="concurrent stream search")
                row += 1

        threads = [threading.Thread(target=writer, name="bench-writer"),
                   threading.Thread(target=reader, name="bench-reader")]
        with ctx.clock("concurrent_rw"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        put("stream.concurrent_search_p50_ms", median(read_ms), len(read_ms))
        put("stream.concurrent_write_p50_ms", median(write_ms), len(write_ms))
        put("stream.lock_wait_ratio", median(read_ms) / median(self.search_ms.flat),
            len(read_ms))

    # ------------------------------------------------------------------
    def report(self) -> None:
        ctx, put = self.ctx, self.ctx.results.put
        best = ctx.results.put_best_round
        best("stream_batch_qps", self.batch_s,
             lambda s: ctx.profile.oracle_queries / s)
        put("stream_wal_bytes_per_user_byte", self.wal_bytes / self.lap_user_bytes)
        # Median of all writes: inserts (2 fsyncs) and deletes (1) make the
        # pooled sample bimodal, and the best of twelve 6-sample medians
        # mostly finds the round where deletes were bunched.
        writes = self.write_ms.flat
        put("stream.write_p50_ms", median(writes), len(writes))
        best("stream.ops_per_s", self.segment_ops_per_s)
        best("stream.search_p50_ms", self.search_ms)
        if not ctx.trace:
            return
        put("stream.insert_p50_ms", median(self.insert_ms), len(self.insert_ms))
        put("stream.insert_p90_ms", tail(self.insert_ms, 90), len(self.insert_ms))
        put("stream.delete_p50_ms", median(self.delete_ms), len(self.delete_ms))
        searches = self.search_ms.flat
        put("stream.search_p95_ms", tail(searches, 95), len(searches))
        window = max(1, int(len(searches) * DRIFT_WINDOW))
        put("stream.search_drift_ratio",
            median(searches[-window:]) / median(searches[:window]), window)
        put("stream.memtable_rows", self.freshness.memtable_rows)
        put("stream.tombstone_ratio", self.freshness.tombstone_ratio)
        put("stream.wal_records", self.wal_records)
        put("stream.recovery_s", self.recovery_s, self.wal_records)
        put("stream.recovery_records_per_s", self.wal_records / self.recovery_s,
            self.wal_records)
