"""Fig. 15: construction-time scaling — CAGRA vs HNSW over DEEP sizes.

The DEEP-1M/10M/100M series is represented by a geometric size ladder of
the DEEP-like generator (the 1:10:100 ratio is kept; absolute sizes are
bench-scaled, as recorded in DESIGN.md §2).

Expected shape: both builders scale ~linearly with N, and CAGRA stays
~2x faster than HNSW (paper: 1.8–2.0x on this series).

The last column is the ``tracemalloc`` peak of one fresh
``CagraIndex.build`` per size over its index bytes.  NN-descent merges each
round one fixed-size row block at a time, so the ratio falls as N grows
past a few blocks; a build temporary that scales with the whole round
shows up as a ratio that no longer falls.
"""

import tracemalloc

from conftest import emit

from repro import CagraIndex, GraphBuildConfig
from repro.bench import format_table
from repro.gpusim import CpuCostModel, GpuCostModel

SERIES = [("deep-1m", 1250), ("deep-10m", 2500), ("deep-100m", 5000)]


def traced_build_ratio(data, config: GraphBuildConfig) -> float:
    """Traced peak of one ``CagraIndex.build`` over its ``memory_bytes()``
    (numpy reports its buffers to ``tracemalloc``, so the peak repeats
    exactly run to run)."""
    tracemalloc.start()
    try:
        index = CagraIndex.build(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / index.memory_bytes()


def test_fig15_build_scaling(ctx, benchmark):
    gpu = GpuCostModel()
    cpu = CpuCostModel()

    def run():
        rows = []
        times = {}
        peak_ratios = {}
        for name, scale in SERIES:
            bundle = ctx.bundle(name, scale=scale)
            dim = bundle.spec.dim
            knn = ctx.knn(name, scale=scale)
            index = ctx.cagra(name, scale=scale)
            n = len(bundle.data)

            cagra_s = gpu.knn_build_time(
                knn.distance_computations, dim,
                num_nodes=n, k=knn.graph.degree, iterations=knn.iterations,
            ) + gpu.optimize_time(
                index.build_report.optimize.detour_checks, n, ctx.degree(name)
            )
            hnsw = ctx.hnsw(name, scale=scale)
            hnsw_s = cpu.build_time(
                hnsw.build_stats.distance_computations, hnsw.build_stats.hops, dim
            )
            peak_ratio = traced_build_ratio(
                bundle.data,
                GraphBuildConfig(graph_degree=ctx.degree(name), metric=bundle.spec.metric),
            )
            times[(name, "CAGRA")] = cagra_s
            times[(name, "HNSW")] = hnsw_s
            peak_ratios[name] = peak_ratio
            rows.append([name, n, f"{cagra_s * 1e3:.1f} ms", f"{hnsw_s * 1e3:.1f} ms",
                         f"{hnsw_s / cagra_s:.1f}x", f"{peak_ratio:.1f}x"])
        return rows, times, peak_ratios

    rows, times, peak_ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "fig15_scaling_build",
        format_table(
            ["dataset", "bench N", "CAGRA build (sim)", "HNSW build (sim)",
             "HNSW / CAGRA", "traced build peak / index"],
            rows,
            title="Fig. 15: construction-time scaling over the DEEP series "
            "(sizes bench-scaled 1:2:4 for the paper's 1:10:100)",
        ),
    )

    # CAGRA faster at every size.
    for name, _ in SERIES:
        assert times[(name, "HNSW")] > times[(name, "CAGRA")], name
    # ~Linear scaling: doubling N should not much more than double time.
    for method in ("CAGRA", "HNSW"):
        small = times[(SERIES[0][0], method)]
        large = times[(SERIES[-1][0], method)]
        growth = large / small
        assert 2.0 < growth < 12.0, (method, growth)  # 4x N -> ~4x time
    # Bounded build memory: past a few row blocks the peak is the (N, d_init)
    # lists plus a constant, so the ratio holds or falls with N.
    mid, large = (peak_ratios[name] for name, _ in SERIES[1:])
    assert large <= 16.0, large
    assert large <= mid, (mid, large)
