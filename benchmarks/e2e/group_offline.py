"""Offline search phases (Fig. 13 / Fig. 14): one thread, back to back.

Layers timed here, from outside, by public call: ``core.traversal``
(``CagraIndex.search_fast``), ``core.search`` (``CagraIndex.search``),
``core.sharding`` / ``parallel`` (``ShardedCagraIndex.search_fast``),
``api`` (``as_ann_index(...).search``) and ``gpusim`` (pricing).
"""

from __future__ import annotations

import time

import numpy as np

from harness import Context
from sizing import P95_SAMPLES, per_round
from stats import Rounds, median, tail

from repro.api import as_ann_index
from repro.bench import scale_report
from repro.core.config import choose_algo
from repro.gpusim import GpuCostModel
from repro.parallel.config import ParallelConfig


class OfflineGroup:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        p = ctx.profile
        self.chunks = [
            np.arange(start, start + p.batch)
            for start in range(0, p.num_queries - p.batch + 1, p.batch)
        ]
        self.batch_wall = Rounds()  # seconds per batch
        self.batch_cpu = Rounds()
        self.first_pass: dict[int, object] = {}  # chunk -> first SearchResult
        self.next_chunk = 0
        self.single_ms = Rounds()
        self.next_single = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    # ------------------------------------------------------------------
    # lap: the two gated loops, a slice of each per round
    # ------------------------------------------------------------------
    def _fast_batch(self) -> None:
        ctx = self.ctx
        chunk = self.next_chunk % len(self.chunks)
        self.next_chunk += 1
        rows = self.chunks[chunk]
        wall, cpu = time.perf_counter(), time.process_time()
        with ctx.tracer.span("core.traversal.search_fast", request=f"b{chunk}"):
            result = ctx.index.search_fast(
                ctx.queries[rows], ctx.k, config=ctx.search_config
            )
        self.batch_cpu.add(time.process_time() - cpu)
        self.batch_wall.add(time.perf_counter() - wall)
        ctx.check_ids(result.indices, what="search_fast")
        self.first_pass.setdefault(chunk, result)

    def _single_query(self) -> None:
        ctx = self.ctx
        row = self.next_single % ctx.profile.num_queries
        self.next_single += 1
        began = time.perf_counter()
        with ctx.tracer.span("core.search.search", request=f"q{row}"):
            result = ctx.index.search(
                ctx.queries[row : row + 1], ctx.k, config=ctx.search_config
            )
        self.single_ms.add((time.perf_counter() - began) * 1e3)
        ctx.check_ids(result.indices, what="search b1")

    def lap(self, rounds: int) -> None:
        ctx = self.ctx
        for samples in (self.batch_wall, self.batch_cpu, self.single_ms):
            samples.start()
        # The traced run reports the single-query p95 and runs each slice
        # on until the tail has its samples.
        single = per_round(P95_SAMPLES, rounds) if ctx.trace else 1
        for phase, step, samples, need in (
            ("fast_batch", self._fast_batch, self.batch_wall, 1),
            ("single_query", self._single_query, self.single_ms, single),
        ):
            with ctx.clock(phase):
                deadline = time.perf_counter() + ctx.slice_seconds(phase, rounds)
                while len(samples.rounds[-1]) < need or time.perf_counter() < deadline:
                    step()

    # ------------------------------------------------------------------
    # fixed work, every run
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Complete the first pass over every query, then price one
        reference pass on the modelled clock."""
        ctx, p = self.ctx, self.ctx.profile
        with ctx.clock("fast_batch"):
            while len(self.first_pass) < len(self.chunks):
                self._fast_batch()
        found = np.vstack(
            [self.first_pass[c].indices for c in range(len(self.chunks))]
        )
        ctx.offline_recall = ctx.recall(found, np.concatenate(self.chunks))
        ctx.checks.require(
            ctx.offline_recall >= 0.95,
            f"offline recall {ctx.offline_recall:.4f} < 0.95",
        )

        # Same pipeline as bench_fig13_large_batch.py: run the reference
        # path for real, scale its counters to the paper's 10k batch, and
        # price them on the A100 model.  A pure function of the seed.
        gpu = GpuCostModel()
        config = ctx.search_config
        rows = self.chunks[0]
        with ctx.clock("priced_pass"):
            with ctx.tracer.span("core.search.search", request="priced"):
                result = ctx.index.search(
                    ctx.queries[rows], ctx.k, config=config, num_sms=gpu.spec.num_sms
                )
            ctx.check_ids(result.indices, what="search reference batch")
            began = time.perf_counter()
            with ctx.tracer.span("gpusim.search_time", request="priced"):
                report = scale_report(result.report, p.modelled_batch / len(rows))
                report.algo = choose_algo(
                    config, p.modelled_batch, num_sms=gpu.spec.num_sms
                )
                timing = gpu.search_time(
                    report,
                    ctx.index.dim,
                    dtype_bytes=ctx.index.dataset.dtype.itemsize,
                    team_size=config.team_size,
                    itopk=config.itopk,
                    search_width=config.search_width,
                )
            self.price_ms = (time.perf_counter() - began) * 1e3
        self.modelled_qps = timing.qps(p.modelled_batch)

    # ------------------------------------------------------------------
    # traced run only: the small-batch, precision, filter, shard sweeps
    # ------------------------------------------------------------------
    def _sweep(self, phase: str, batch: int, call) -> tuple[list[float], list]:
        """Run ``call(rows)`` on successive ``batch``-row windows for the
        phase's seconds (at least twice); returns (seconds, results)."""
        ctx = self.ctx
        times, results = [], []
        with ctx.clock(phase):
            deadline = time.perf_counter() + ctx.seconds[phase]
            start = 0
            while len(times) < 2 or time.perf_counter() < deadline:
                if start + batch > ctx.profile.num_queries:
                    start = 0
                rows = np.arange(start, start + batch)
                start += batch
                began = time.perf_counter()
                with ctx.tracer.span(f"sweep.{phase}"):
                    result = call(rows)
                times.append(time.perf_counter() - began)
                results.append((rows, result))
        return times, results

    def sweeps(self) -> None:
        ctx, p, put = self.ctx, self.ctx.profile, self.ctx.results.put
        index, queries, k, config = ctx.index, ctx.queries, ctx.k, ctx.search_config

        def fast(rows, **kwargs):
            result = index.search_fast(queries[rows], k, config=config, **kwargs)
            ctx.check_ids(result.indices, what="search_fast sweep")
            return result

        def reference(rows):
            result = index.search(queries[rows], k, config=config)
            ctx.check_ids(result.indices, what="search sweep")
            return result

        for batch in (1, 8, 64):
            times, _ = self._sweep(f"fast_b{batch}", batch, fast)
            put(f"core.traversal.fast_b{batch}_qps", batch / median(times), len(times))
        for batch in (8, 64):
            times, _ = self._sweep(f"reference_b{batch}", batch, reference)
            put(f"core.search.reference_b{batch}_qps", batch / median(times), len(times))

        mask = np.random.default_rng([ctx.seed, 0xF1]).random(index.size) < 0.5
        times, results = self._sweep(
            "filtered_batch", p.batch, lambda rows: fast(rows, filter_mask=mask)
        )
        put("core.traversal.filtered_b512_qps", p.batch / median(times), len(times))
        leaked = sum(
            int(np.count_nonzero(~mask[r.indices[r.indices < index.size]]))
            for _, r in results
        )
        ctx.checks.fail("filtered search returned masked-out rows", leaked)

        # Sharded fan-out + merge; the index was built by the build group
        # with a serial default executor, the thread pool is a per-call
        # override (2 workers = this box's cores).
        sharded = ctx.sharded
        serial_times, serial_results = self._sweep(
            "sharded_serial",
            p.batch,
            lambda rows: sharded.search_fast(queries[rows], k, config=config),
        )
        put("core.sharding.s2_serial_b512_qps", p.batch / median(serial_times),
            len(serial_times))
        in_shards = sum(sum(r.shard_seconds) for _, r in serial_results)
        put("core.sharding.merge_share", 1.0 - in_shards / sum(serial_times),
            len(serial_times))
        threads = ParallelConfig(backend="thread", num_workers=2)
        times, _ = self._sweep(
            "sharded_thread",
            p.batch,
            lambda rows: sharded.search_fast(
                queries[rows], k, config=config, parallel=threads
            ),
        )
        put("parallel.s2_thread_b512_qps", p.batch / median(times), len(times))
        for rows, result in serial_results:
            ctx.check_ids(result.indices, what="sharded search_fast")
        rows = np.concatenate([rows for rows, _ in serial_results])
        found = np.vstack([r.indices for _, r in serial_results])
        sharded_recall = ctx.recall(found, rows)
        # One-sided: two half-size shards searched at the same itopk often
        # recall more than the monolithic index, never meaningfully less.
        ctx.checks.require(
            sharded_recall >= ctx.offline_recall - 0.02,
            f"sharded recall {sharded_recall:.4f} is more than 0.02 below "
            f"monolithic {ctx.offline_recall:.4f}",
        )

        # Adapter cost: the same batch through as_ann_index(...).search and
        # straight into search_fast, alternating so drift hits both alike.
        adapter = as_ann_index(index)
        direct_times: list[float] = []
        adapter_times: list[float] = []

        def both(rows):
            began = time.perf_counter()
            fast(rows)
            direct_times.append(time.perf_counter() - began)
            began = time.perf_counter()
            result = adapter.search(queries[rows], k, config=config)
            adapter_times.append(time.perf_counter() - began)
            ctx.check_ids(result.indices, what="adapter search")
            return result

        self._sweep("adapter_batch", p.batch, both)
        put("api.adapter_b512_overhead_ms",
            (median(adapter_times) - median(direct_times)) * 1e3,
            len(direct_times))

        # fp16 last: the index caches one engine, so this evicts the fp32
        # engine; one untimed fp32 call afterwards restores it.
        half = config.with_overrides(precision="fp16")
        index.search_fast(queries[:64], k, config=half)
        times, _ = self._sweep(
            "fp16_batch",
            p.batch,
            lambda rows: index.search_fast(queries[rows], k, config=half),
        )
        put("core.traversal.fp16_b512_qps", p.batch / median(times), len(times))
        index.search_fast(queries[:64], k, config=config)

    # ------------------------------------------------------------------
    def report(self) -> None:
        ctx, p, put = self.ctx, self.ctx.profile, self.ctx.results.put
        best = ctx.results.put_best_round
        best("batch_wall_qps", self.batch_wall, lambda s: p.batch / s)
        put("modelled_gpu_qps", self.modelled_qps)

        best("core.traversal.fast_b512_ms_per_query", self.batch_wall,
             lambda s: s / p.batch * 1e3)
        best("core.traversal.fast_b512_cpu_ms_per_query", self.batch_cpu,
             lambda s: s / p.batch * 1e3)
        reports = [self.first_pass[c].report for c in range(len(self.chunks))]
        total = lambda field: sum(getattr(r, field) for r in reports)  # noqa: E731
        queries = len(self.chunks) * p.batch
        computed, skipped = (
            total("distance_computations"), total("skipped_distance_computations")
        )
        put("core.traversal.iterations_per_query", total("iterations") / queries)
        put("core.traversal.distance_computations_per_query", computed / queries)
        put("core.traversal.skipped_distance_ratio", skipped / (skipped + computed))
        put("core.traversal.hash_probes_per_lookup",
            total("hash_probes") / max(1, total("hash_lookups")))
        put("core.traversal.candidate_gathers_per_query",
            total("candidate_gathers") / queries)
        best("core.search.reference_b1_p50_ms", self.single_ms)
        if not ctx.trace:
            return
        put("core.search.reference_b1_p95_ms", tail(self.single_ms.flat, 95),
            len(self.single_ms))
        put("gpusim.modelled_us_per_query", 1e6 / self.modelled_qps)
        put("gpusim.price_ms", self.price_ms)
