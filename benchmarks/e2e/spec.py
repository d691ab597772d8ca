"""The benchmark's contract: workloads, metric names, units, clocks, bounds.

This table is the single source for ``BENCHMARK.json`` at the repo root
(``python benchmarks/e2e/spec.py --write`` regenerates it; a self-test
fails when the two disagree) and for the driver, which refuses to record
a metric that is not listed here and refuses to finish while a listed
one is missing.

Every number names its clock:

* ``wall``     — ``time.perf_counter`` around real Python execution;
* ``cpu``      — ``time.process_time`` (user + system of this process);
* ``modelled`` — ``repro.gpusim`` pricing of operation counters, a pure
  function of the seed (never of the machine);
* ``count``    — an operation count that repeats exactly for a seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seconds of time-boxed measurement per run (the driver's ``--seconds``).
RUN_SECONDS = 6

#: ``-`` marks a measured quantity that is not a time (RSS, recall).
CLOCKS = ("wall", "cpu", "modelled", "count", "-")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # end-to-end only: tolerated relative worsening


#: name -> why (one line each; the README has the long form).  Every run
#: walks the same stack with the same sizes (the contract wants every
#: metric from every workload); a workload picks which layer's answers are
#: scored for ``recall_at_10``.
WORKLOADS = {
    "offline_batch": (
        "Fig. 13/14: recall_at_10 scores search_fast over all 2048 queries "
        "against exact truth; every run also laps serving, router, stream and "
        "build, so all metrics print"
    ),
    "online": (
        "same lap; recall_at_10 scores what CagraServer answered under Poisson "
        "arrivals and backlog drains, so a serving change that loses answers "
        "shows here"
    ),
    "stream_mixed": (
        "same lap; recall_at_10 scores MutableIndex after the 70/20/10 "
        "search/insert/delete ops against a live-row brute-force oracle "
        "(tombstones + memtable)"
    ),
    "build": (
        "Fig. 11: same lap; recall_at_10 is the built graph's at the bench "
        "SearchConfig (both timed rebuilds are checked bit-equal to the index "
        "searched), next to build_s"
    ),
}

# Wall-clock bounds are 25 %, the widest the contract allows: on this
# 2-core VM identical work drifts +-20-30 % in spells of seconds to minutes
# (README "Noise").  The acceptance driver refuses the whole benchmark if
# one spread of one metric on one workload passes its bound, so a wall
# metric is gated only if its spread stayed under two thirds of the bound
# in every one of the sixteen A/A sets on record (README "What is not
# gated" has the table): the vectorised paths did (<= 0.155), the scalar
# path, the router's closed loop and fsync did not (0.20-0.33).
# Metrics that repeat exactly for a seed get bounds about three times
# their typical spread over ten *distinct* seeds, which is how the driver
# samples them (README "Seed-to-seed spread"); baseline/aa.json has only
# five seeds and understates it.
_WALL = 0.25

END_TO_END = [
    Metric("setup_s", "s", "wall", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "-", "lower", 0.10),
    Metric("recall_at_10", "ratio", "-", "higher", 0.03),
    Metric("batch_wall_qps", "q/s", "wall", "higher", _WALL),
    Metric("modelled_gpu_qps", "q/s", "modelled", "higher", 0.15),
    Metric("serve_capacity_qps", "q/s", "wall", "higher", _WALL),
    Metric("stream_batch_qps", "q/s", "wall", "higher", _WALL),
    Metric("stream_wal_bytes_per_user_byte", "B/B", "count", "lower", 0.001),
    Metric("build_s", "s", "wall", "lower", _WALL),
]


def _layer(prefix: str, rows: list[tuple]) -> list[Metric]:
    return [Metric(f"{prefix}.{n}", u, c, b) for n, u, c, b in rows]


def _rate(rate: int) -> list[Metric]:
    return _layer(
        f"serve.r{rate}",
        [
            ("p50_ms", "ms", "wall", "lower"),
            ("p95_ms", "ms", "wall", "lower"),
            ("mean_batch", "queries", "wall", "higher"),
            ("single_query_batch_fraction", "ratio", "wall", "lower"),
            ("achieved_qps", "q/s", "wall", "higher"),
            ("failed", "count", "wall", "lower"),
        ],
    ) + [Metric(f"bench.loadgen.r{rate}.late_p95_ms", "ms", "wall", "lower")]


OPEN_LOOP_RATES = (50, 200, 600)

PER_LAYER = (
    # ---- offline_batch -------------------------------------------------
    _layer(
        "core.traversal",
        [
            ("fast_b512_ms_per_query", "ms", "wall", "lower"),
            ("fast_b512_cpu_ms_per_query", "ms", "cpu", "lower"),
            ("fast_b64_qps", "q/s", "wall", "higher"),
            ("fast_b8_qps", "q/s", "wall", "higher"),
            ("fast_b1_qps", "q/s", "wall", "higher"),
            ("fp16_b512_qps", "q/s", "wall", "higher"),
            ("filtered_b512_qps", "q/s", "wall", "higher"),
            ("iterations_per_query", "count", "count", "lower"),
            ("distance_computations_per_query", "count", "count", "lower"),
            ("skipped_distance_ratio", "ratio", "count", "higher"),
            ("hash_probes_per_lookup", "count", "count", "lower"),
            ("candidate_gathers_per_query", "count", "count", "lower"),
        ],
    )
    + _layer(
        "core.search",
        [
            ("reference_b1_p50_ms", "ms", "wall", "lower"),
            ("reference_b1_p95_ms", "ms", "wall", "lower"),
            ("reference_b8_qps", "q/s", "wall", "higher"),
            ("reference_b64_qps", "q/s", "wall", "higher"),
            ("ladder_self_ms", "ms", "wall", "lower"),
        ],
    )
    + _layer(
        "core.sharding",
        [
            ("s2_serial_b512_qps", "q/s", "wall", "higher"),
            ("merge_share", "ratio", "wall", "lower"),
            ("build_s2_serial_s", "s", "wall", "lower"),
        ],
    )
    + [Metric("parallel.s2_thread_b512_qps", "q/s", "wall", "higher")]
    + _layer(
        "api",
        [
            ("adapter_b512_overhead_ms", "ms", "wall", "lower"),
            ("ladder_self_ms", "ms", "wall", "lower"),
            ("persistence.save_s", "s", "wall", "lower"),
            ("persistence.load_s", "s", "wall", "lower"),
            ("persistence.bytes_per_vector_byte", "B/B", "count", "lower"),
        ],
    )
    + _layer(
        "gpusim",
        [
            ("modelled_us_per_query", "us", "modelled", "lower"),
            ("price_ms", "ms", "wall", "lower"),
            ("modelled_build_rows_per_s", "rows/s", "modelled", "higher"),
        ],
    )
    # ---- online ---------------------------------------------------------
    + [m for rate in OPEN_LOOP_RATES for m in _rate(rate)]
    + _layer(
        "serve",
        [
            ("slo_rate_qps", "q/s", "wall", "higher"),
            ("drain_mean_batch", "queries", "wall", "higher"),
            ("max_queue_depth", "queries", "wall", "lower"),
            ("closed2_qps", "q/s", "wall", "higher"),
            ("closed2_p50_ms", "ms", "wall", "lower"),
            ("cache_zipf.hit_rate", "ratio", "wall", "higher"),
            ("cache_zipf.p50_ms", "ms", "wall", "lower"),
            ("ladder_self_ms", "ms", "wall", "lower"),
            ("queue_wait_p50_ms", "ms", "wall", "lower"),
            ("batch_exec_share", "ratio", "wall", "higher"),
        ],
    )
    + _layer(
        "router",
        [
            ("closed2_qps", "q/s", "wall", "higher"),
            ("closed2_p50_ms", "ms", "wall", "lower"),
            ("closed2_p95_ms", "ms", "wall", "lower"),
            ("qps_ratio_vs_single_server", "ratio", "wall", "higher"),
            ("hedge_rate", "ratio", "wall", "lower"),
            ("hedge_win_rate", "ratio", "wall", "higher"),
            ("failovers", "count", "wall", "lower"),
            ("ladder_self_ms", "ms", "wall", "lower"),
            ("slow.p50_ms", "ms", "wall", "lower"),
            ("slow.p95_ms", "ms", "wall", "lower"),
            ("slow.hedge_rate", "ratio", "wall", "higher"),
            ("slow.hedge_win_rate", "ratio", "wall", "higher"),
        ],
    )
    + [Metric("ladder.e2e_p50_ms", "ms", "wall", "lower")]
    # ---- stream_mixed ---------------------------------------------------
    + _layer(
        "stream",
        [
            ("ops_per_s", "op/s", "wall", "higher"),
            ("search_p50_ms", "ms", "wall", "lower"),
            ("write_p50_ms", "ms", "wall", "lower"),
            ("insert_p50_ms", "ms", "wall", "lower"),
            ("insert_p90_ms", "ms", "wall", "lower"),
            ("delete_p50_ms", "ms", "wall", "lower"),
            ("search_p95_ms", "ms", "wall", "lower"),
            ("search_drift_ratio", "ratio", "wall", "lower"),
            ("memtable_rows", "rows", "count", "lower"),
            ("tombstone_ratio", "ratio", "count", "lower"),
            ("wal_records", "count", "count", "lower"),
            ("recovery_s", "s", "wall", "lower"),
            ("recovery_records_per_s", "rec/s", "wall", "higher"),
            ("repair_s", "s", "wall", "lower"),
            ("repair_rows_per_s", "rows/s", "wall", "higher"),
            ("recall_post_repair", "ratio", "-", "higher"),
            ("post_repair_search_p50_ms", "ms", "wall", "lower"),
            ("concurrent_search_p50_ms", "ms", "wall", "lower"),
            ("concurrent_write_p50_ms", "ms", "wall", "lower"),
            ("lock_wait_ratio", "ratio", "wall", "lower"),
        ],
    )
    # ---- build ----------------------------------------------------------
    + _layer(
        "core.nn_descent",
        [
            ("s", "s", "wall", "lower"),
            ("iterations", "count", "count", "lower"),
            ("distance_computations", "count", "count", "lower"),
        ],
    )
    + _layer(
        "core.optimize",
        [
            ("s", "s", "wall", "lower"),
            ("reorder_s", "s", "wall", "lower"),
            ("reverse_merge_s", "s", "wall", "lower"),
            ("detour_checks", "count", "count", "lower"),
            ("two_hop_mean", "count", "count", "higher"),
            ("strong_components", "count", "count", "lower"),
        ],
    )
    + [
        Metric("core.index.extend_rows_per_s", "rows/s", "wall", "higher"),
        Metric("datasets.generate_s", "s", "wall", "lower"),
        Metric("baselines.exact_truth_s", "s", "wall", "lower"),
        Metric("bench.trace_overhead_fraction", "ratio", "wall", "lower"),
    ]
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}

#: Per-layer metrics that an untraced run measures anyway: the scalar-path,
#: router and fsync numbers, too noisy on this host to gate (README "What is not
#: gated").  ``aa.py`` and ``compare.py`` report them beside the
#: end-to-end metrics, never failing on them.
DIAGNOSTICS = [
    BY_NAME[name]
    for name in (
        "core.search.reference_b1_p50_ms",
        "serve.r50.p50_ms",
        "router.closed2_qps",
        "stream.ops_per_s",
        "stream.search_p50_ms",
        "stream.write_p50_ms",
    )
]


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        BENCHMARK_JSON.write_text(text)
    else:
        sys.stdout.write(text)
