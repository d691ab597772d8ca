"""Extension bench: online serving — arrival rate × max_wait sweep.

Like :mod:`bench_ext_fast_path`, this measures *real* Python wall time,
not simulated testbed time: the quantity of interest is the latency /
throughput trade-off of the dynamic micro-batching scheduler itself.
Higher ``max_wait_ms`` coalesces larger batches (more single-CTA
throughput, per Fig. 13) at the cost of added queueing latency; at low
arrival rates the scheduler degrades to batch-of-1 flushes on the
multi-CTA path (Table II).  The sweep makes that trade-off visible as a
table over (arrival rate, max_wait).
"""

import numpy as np
import pytest
from conftest import emit

from repro import SearchConfig
from repro.bench import format_table
from repro.core.metrics import recall
from repro.serve import CagraServer, ServeConfig, run_open_loop

DATASET = "deep-1m"
RATES_QPS = (150.0, 400.0, 1000.0)
MAX_WAITS_MS = (1.0, 4.0, 16.0)
NUM_REQUESTS = 120
SEED = 11


@pytest.fixture(scope="module")
def setup(ctx):
    return ctx.cagra(DATASET), ctx.bundle(DATASET), ctx.truth(DATASET)


def _run_cell(index, queries, rate, max_wait_ms):
    server = CagraServer(
        index,
        ServeConfig(
            max_batch=32,
            max_wait_ms=max_wait_ms,
            queue_capacity=4096,
            cache_capacity=0,  # measure the scheduler, not the cache
        ),
        search_config=SearchConfig(itopk=64, seed=SEED),
    )
    with server:
        report = run_open_loop(
            server, queries, rate_qps=rate, num_requests=NUM_REQUESTS, seed=SEED
        )
    return report, server.stats()


def test_serving_rate_wait_sweep(setup, benchmark):
    """Latency/throughput curves over arrival rate × max_wait_ms."""
    index, bundle, truth = setup

    def run():
        rows = []
        for max_wait_ms in MAX_WAITS_MS:
            for rate in RATES_QPS:
                report, stats = _run_cell(index, bundle.queries, rate, max_wait_ms)
                assert report.count("ok") == len(report) == NUM_REQUESTS
                rows.append([
                    f"{max_wait_ms:.0f}",
                    f"{rate:,.0f}",
                    f"{report.achieved_qps:,.0f}",
                    f"{stats.mean_batch_size:.1f}",
                    stats.single_query_batches,
                    f"{report.latency_percentile_ms(50):.2f}",
                    f"{report.latency_percentile_ms(95):.2f}",
                    f"{report.latency_percentile_ms(99):.2f}",
                    f"{np.percentile(report.lateness_ms, 95):.2f}",
                ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ext_serving",
        format_table(
            ["max_wait (ms)", "offered qps", "achieved qps", "mean batch",
             "multi-CTA flushes", "p50 (ms)", "p95 (ms)", "p99 (ms)",
             "late p95 (ms)"],
            rows,
            title=(
                f"Extension: online serving sweep on {DATASET} "
                f"({NUM_REQUESTS} Poisson requests/cell, max_batch 32, "
                f"itopk 64; latency: wall, client-side, from due time)"
            ),
        ),
    )


def test_serving_recall_matches_offline(setup, benchmark):
    """Served results must score the same recall as the offline fast path."""
    index, bundle, truth = setup

    def run():
        report, _ = _run_cell(index, bundle.queries, rate=400.0, max_wait_ms=4.0)
        rows, found = report.answers()
        served = recall(found, truth[rows])
        offline = recall(
            index.search_fast(
                bundle.queries, 10, config=SearchConfig(itopk=64, seed=SEED)
            ).indices,
            truth,
        )
        return served, offline

    served, offline = benchmark.pedantic(run, rounds=1, iterations=1)
    assert abs(served - offline) <= 0.01
