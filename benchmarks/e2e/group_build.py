"""Construction phases (Fig. 11): single thread, fixed work.

``build_s`` is a whole ``CagraIndex.build`` on the warm heap (the cold
first build of the process is part of ``setup_s``); its knn/optimize split
is read from the public ``index.build_report``.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from harness import Context
from stats import Rounds

from repro import CagraIndex, ShardedCagraIndex, validate_index
from repro.core.metrics import average_two_hop_count, strong_connected_components
from repro.gpusim import GpuCostModel
from repro.parallel.config import ParallelConfig


class BuildGroup:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.build_s = Rounds()  # one whole build per "round"
        self.reports: list = []
        self.minor_faults: list[int] = []  # per timed build; 0 on a warm heap
        # One before the lap and one after it, 20 s apart: the better one
        # is reported (see stats.Rounds).  The traced run needs only the
        # knn/optimize split of one.
        self.builds_left = 1 if ctx.trace else 2

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.ctx.sharded is not None:
            self.ctx.sharded.close()

    def timed_build(self) -> None:
        """One whole build; must reproduce the setup build's graph."""
        ctx = self.ctx
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with ctx.clock("build"):
            began = time.perf_counter()
            with ctx.tracer.span("core.index.build"):
                rebuilt = CagraIndex.build(ctx.data, ctx.build_config)
            self.build_s.single(time.perf_counter() - began)
        self.minor_faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        )
        self.reports.append(rebuilt.build_report)
        self.builds_left -= 1
        ctx.checks.require(
            np.array_equal(rebuilt.graph.neighbors, ctx.index.graph.neighbors),
            "same-seed rebuild produced a different graph",
        )

    def lap(self, rounds: int) -> None:
        return None  # builds run before and after the lap, not inside it

    def finish(self) -> None:
        ctx = self.ctx
        while self.builds_left > 0:
            self.timed_build()
        with ctx.clock("validate"):
            report = validate_index(ctx.index)
        ctx.checks.require(report.ok, f"validate_index: {report.errors}")

    # ------------------------------------------------------------------
    # traced run only
    # ------------------------------------------------------------------
    def sharded_build(self) -> None:
        """Two shards built one after the other; the offline sweeps search
        the result."""
        ctx = self.ctx
        with ctx.clock("sharded_build"):
            began = time.perf_counter()
            with ctx.tracer.span("core.sharding.build"):
                ctx.sharded = ShardedCagraIndex.build(
                    ctx.data, 2, ctx.build_config,
                    parallel=ParallelConfig(backend="serial"),
                )
            ctx.results.put("core.sharding.build_s2_serial_s",
                            time.perf_counter() - began)
        ctx.checks.ops()

    def sweeps(self) -> None:
        ctx, p, put = self.ctx, self.ctx.profile, self.ctx.results.put
        index = ctx.index
        with ctx.clock("build_extras"):
            began = time.perf_counter()
            with ctx.tracer.span("core.index.extend"):
                extended = index.extend(ctx.pool[: p.extend_rows], seed=ctx.seed)
            put("core.index.extend_rows_per_s",
                p.extend_rows / (time.perf_counter() - began), p.extend_rows)
            ctx.checks.require(
                extended.size == index.size + p.extend_rows
                and validate_index(extended).ok,
                "extended index invalid",
            )

            path = str(ctx.out_dir / "index.npz")
            began = time.perf_counter()
            with ctx.tracer.span("api.persistence.save"):
                index.save(path)
            put("api.persistence.save_s", time.perf_counter() - began)
            began = time.perf_counter()
            with ctx.tracer.span("api.persistence.load"):
                loaded = CagraIndex.load(path)
            put("api.persistence.load_s", time.perf_counter() - began)
            ctx.checks.require(
                np.array_equal(loaded.graph.neighbors, index.graph.neighbors)
                and np.array_equal(loaded.dataset, index.dataset),
                "save/load round trip changed the index",
            )
            put("api.persistence.bytes_per_vector_byte",
                (ctx.out_dir / "index.npz").stat().st_size / index.dataset.nbytes)

            put("core.optimize.two_hop_mean", average_two_hop_count(index.graph))
            put("core.optimize.strong_components",
                strong_connected_components(index.graph))

    # ------------------------------------------------------------------
    def report(self) -> None:
        ctx, put = self.ctx, self.ctx.results.put
        ctx.results.put_best_round("build_s", self.build_s)
        if not ctx.trace:
            return
        report = self.reports[0]
        put("core.nn_descent.s", report.knn_seconds)
        put("core.nn_descent.iterations", report.nn_descent_iterations)
        put("core.nn_descent.distance_computations", report.knn_distance_computations)
        put("core.optimize.s", report.optimize_seconds)
        put("core.optimize.reorder_s", report.optimize.reorder_seconds)
        put("core.optimize.reverse_merge_s", report.optimize.reverse_merge_seconds)
        put("core.optimize.detour_checks", report.optimize.detour_checks)
        # Priced from the real build's counters (bench_fig11's pipeline).
        # NN-descent and the detour count do a fixed amount of work at a
        # given size and degree, so this is the same for every seed; as a
        # rate, since the contract refuses a time that never changes.
        gpu = GpuCostModel()
        knn_s = gpu.knn_build_time(
            report.knn_distance_computations,
            ctx.index.dim,
            num_nodes=ctx.index.size,
            k=ctx.build_config.resolved_intermediate_degree,
            iterations=report.nn_descent_iterations,
        )
        optimize_s = gpu.optimize_time(
            report.optimize.detour_checks, ctx.index.size, ctx.index.degree
        )
        put("gpusim.modelled_build_rows_per_s", ctx.index.size / (knn_s + optimize_s))
