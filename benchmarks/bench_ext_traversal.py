"""Extension bench: the array-parallel traversal engine vs the legacy loop.

The engine (:mod:`repro.core.traversal`) steps every live query of a
batch through one masked numpy program; the legacy shape — the
per-query sequential loop that ``search_batch`` ran before the engine
existed — survives as the executable specification (reference mode's
scalar arm, which a batch of one runs).  This bench measures *actual*
Python wall time for both at the same search configuration, plus the
fp16-storage variant, and asserts the engine's batched QPS is at least
the legacy loop's at matched recall.

A second bench times reference mode's two dispatch arms — the
sequential specification per query vs the array-parallel hash slab — at
small batch sizes on the end-to-end benchmark's shape, which is the
measurement ``_SCALAR_REFERENCE_ROWS`` in :mod:`repro.core.traversal` is
set from.

A third bench times one batch-512 ``search_fast`` on the same shape and
splits it by step — visited probe, first-visit distances, top-M merge,
parent pick, parent marking, retirement — by wrapping the dense
backend's seam methods with wall-clock timers, next to the same
measurement taken at the commit before the top-M stayed packed across
steps (``STEP_SPLIT_BEFORE``).

Alongside the human-readable tables in ``benchmarks/results/``, each run
appends a machine-readable entry to ``BENCH_traversal.json`` at the
repo root so engine-vs-legacy headroom is tracked across PRs (the
traversal-side companion to ``BENCH_search.json``).  Every time in that
file is Python wall time (``"clock": "wall"``), never modelled GPU time.
"""

import json
import os
import time
from datetime import date
from unittest import mock

import numpy as np
import pytest
from conftest import emit

import repro.core.traversal as traversal
from repro import CagraIndex, GraphBuildConfig, SearchConfig
from repro.bench import format_table
from repro.core.metrics import recall
from repro.datasets.synthetic import clustered_gaussian, make_queries

TRAJECTORY_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_traversal.json"
)

ROWS = 1500
DIM = 32
DEGREE = 16
NUM_QUERIES = 64
K = 10
SEED = 47
ITOPK = 64

#: The dispatch-crossover bench runs at benchmarks/e2e's ``bench`` profile
#: shape (rows x dim, degree, itopk, default algo), since that is the
#: traffic the reference path sees there.
CROSSOVER_ROWS = 3000
CROSSOVER_DIM = 96
CROSSOVER_DEGREE = 32
CROSSOVER_ITOPK = 32
CROSSOVER_BATCHES = (1, 2, 4, 8, 12, 16, 24, 32)
CROSSOVER_REPEATS = 5

#: The batch-512 step split runs on the same shape (benchmarks/e2e's
#: ``fast_batch`` phase: 512 queries per ``search_fast``).
SPLIT_BATCH = 512
SPLIT_REPEATS = 9
#: The parts of the split, in table order (``distance`` is ``_first_visits``
#: less its ``probe``).
SPLIT_PARTS = ("probe", "distance", "merge", "pick", "mark", "retire")

#: ``test_fast_b512_step_split`` as measured at commit 2c98259 (the parent
#: of the packed top-M step, whose dense top-M was unpacked and repacked
#: every step) on the same 2-core box, by this harness as it stood there:
#: ``pick`` was ``_pick_parents`` alone, and the selectable mask, parent
#: flags and retirement sat in the loop body.  Milliseconds of one
#: batch-512 ``search_fast``: ``best_ms`` unwrapped (best of 9), the rest
#: from the wrapped median-total run.
STEP_SPLIT_BEFORE = {
    "commit": "2c98259",
    "best_ms": 51.04,
    "total_ms": 51.98,
    "probe_ms": 12.65,
    "distance_ms": 19.88,
    "merge_ms": 10.05,
    "pick_ms": 2.47,
}


def _append_entry(entry):
    trajectory = {"schema": 1, "entries": []}
    if os.path.exists(TRAJECTORY_PATH):
        with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
            trajectory = json.load(handle)
    trajectory["entries"].append(entry)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def setup():
    data = clustered_gaussian(ROWS, DIM, seed=SEED)
    index = CagraIndex.build(data, GraphBuildConfig(graph_degree=DEGREE, seed=SEED))
    queries = make_queries(data, NUM_QUERIES, seed=SEED + 1)
    from repro.baselines import exact_search

    truth, _ = exact_search(data, queries, K)
    return index, queries, truth


def _legacy_loop(index, queries, config):
    """The pre-engine ``search_batch`` shape: one query at a time through
    the sequential executable specification."""
    engine = index.engine()
    out = np.empty((queries.shape[0], K), dtype=np.int64)
    for i, query in enumerate(queries):
        out[i] = engine.search(query[None], K, config, mode="reference").indices[0]
    return out


def test_engine_vs_legacy_qps(setup, benchmark):
    index, queries, truth = setup
    config = SearchConfig(itopk=ITOPK, algo="single_cta", seed=SEED)

    def run():
        timings = {}
        t0 = time.perf_counter()
        legacy_ids = _legacy_loop(index, queries, config)
        timings["legacy"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ref = index.search(queries, K, config)
        timings["engine_reference"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        fast = index.search_fast(queries, K, config)
        timings["engine_fast"] = time.perf_counter() - t0

        fp16 = config.with_overrides(precision="fp16")
        t0 = time.perf_counter()
        half = index.search_fast(queries, K, fp16)
        timings["engine_fast_fp16"] = time.perf_counter() - t0

        recalls = {
            "legacy": recall(legacy_ids, truth),
            "engine_reference": recall(ref.indices, truth),
            "engine_fast": recall(fast.indices, truth),
            "engine_fast_fp16": recall(half.indices, truth),
        }
        return timings, recalls

    timings, recalls = benchmark.pedantic(run, rounds=1, iterations=1)
    qps = {name: NUM_QUERIES / seconds for name, seconds in timings.items()}

    rows = [
        [name, f"{timings[name] * 1e3:.1f} ms", f"{qps[name]:,.0f}",
         f"{recalls[name]:.4f}"]
        for name in ("legacy", "engine_reference", "engine_fast",
                     "engine_fast_fp16")
    ]
    rows.append(["engine_fast / legacy", "", f"{qps['engine_fast'] / qps['legacy']:.2f}x", ""])
    emit(
        "ext_traversal",
        format_table(
            ["path", "python wall time", "QPS (real)", f"recall@{K}"],
            rows,
            title=(
                f"Extension: array-parallel traversal engine vs legacy "
                f"per-query loop ({ROWS}-row degree-{DEGREE} index, "
                f"{NUM_QUERIES} queries, itopk {ITOPK})"
            ),
        ),
    )

    entry = {
        "recorded": date.today().isoformat(),
        "bench": "ext_traversal",
        "clock": "wall",
        "config": {
            "rows": ROWS, "dim": DIM, "degree": DEGREE, "k": K,
            "num_queries": NUM_QUERIES, "seed": SEED, "itopk": ITOPK,
        },
        "cells": {
            name: {
                "wall_seconds": round(timings[name], 4),
                "qps": round(qps[name], 1),
                "recall": round(recalls[name], 4),
            }
            for name in timings
        },
        "costs": {
            "engine_fast_over_legacy_qps": round(qps["engine_fast"] / qps["legacy"], 3),
            "fp16_recall_delta": round(
                recalls["engine_fast"] - recalls["engine_fast_fp16"], 4
            ),
        },
    }
    _append_entry(entry)

    # Acceptance: reference mode reproduces the legacy loop's results
    # exactly, and the batched engine is at least as fast as the legacy
    # per-query loop at matched recall.
    assert recalls["engine_reference"] == recalls["legacy"]
    assert recalls["engine_fast"] >= recalls["legacy"] - 0.01
    assert abs(recalls["engine_fast"] - recalls["engine_fast_fp16"]) <= 0.01
    assert qps["engine_fast"] >= qps["legacy"]


@pytest.fixture(scope="module")
def bench_shape():
    """Index and queries at the end-to-end benchmark's shape."""
    data = clustered_gaussian(CROSSOVER_ROWS, CROSSOVER_DIM, seed=SEED)
    index = CagraIndex.build(
        data, GraphBuildConfig(graph_degree=CROSSOVER_DEGREE, seed=SEED)
    )
    queries = make_queries(data, SPLIT_BATCH, seed=SEED + 1)
    return index, queries, SearchConfig(itopk=CROSSOVER_ITOPK, seed=SEED)


def test_reference_dispatch_crossover(bench_shape, benchmark):
    """Scalar arm vs slab arm of reference mode at batch 1..32.

    Both arms return bitwise-identical results, so the only question is
    which is faster at which batch size; ``_SCALAR_REFERENCE_ROWS`` is the
    smallest batch the slab should serve.
    """
    index, queries, config = bench_shape

    def best_ms(batch, forced_threshold):
        with mock.patch.object(traversal, "_SCALAR_REFERENCE_ROWS", forced_threshold):
            times = []
            for _ in range(CROSSOVER_REPEATS):
                t0 = time.perf_counter()
                index.search(queries[:batch], K, config)
                times.append(time.perf_counter() - t0)
        return min(times) * 1e3

    def run():
        return {
            batch: {
                "scalar_ms": round(best_ms(batch, 10**9), 2),
                "slab_ms": round(best_ms(batch, 0), 2),
            }
            for batch in CROSSOVER_BATCHES
        }

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    slab_wins = [
        batch for batch, c in cells.items() if c["slab_ms"] <= c["scalar_ms"]
    ]
    crossover = min(slab_wins) if slab_wins else None

    emit(
        "ext_traversal_crossover",
        format_table(
            ["batch", f"scalar arm (best of {CROSSOVER_REPEATS})",
             f"slab arm (best of {CROSSOVER_REPEATS})", "faster"],
            [
                [batch, f"{c['scalar_ms']:.1f} ms", f"{c['slab_ms']:.1f} ms",
                 "slab" if c["slab_ms"] <= c["scalar_ms"] else "scalar"]
                for batch, c in cells.items()
            ],
            title=(
                f"Extension: reference-mode dispatch arms, python wall time "
                f"({CROSSOVER_ROWS}x{CROSSOVER_DIM}, degree {CROSSOVER_DEGREE}, "
                f"itopk {CROSSOVER_ITOPK}; _SCALAR_REFERENCE_ROWS = "
                f"{traversal._SCALAR_REFERENCE_ROWS}, measured crossover "
                f"{crossover})"
            ),
        ),
    )
    _append_entry({
        "recorded": date.today().isoformat(),
        "bench": "ext_traversal_crossover",
        "clock": "wall",
        "config": {
            "rows": CROSSOVER_ROWS, "dim": CROSSOVER_DIM,
            "degree": CROSSOVER_DEGREE, "k": K, "seed": SEED,
            "itopk": CROSSOVER_ITOPK, "repeats": CROSSOVER_REPEATS,
            "statistic": "best",
        },
        "cells": {f"batch_{batch}": c for batch, c in cells.items()},
        "costs": {
            "measured_crossover_rows": crossover,
            "scalar_reference_rows": traversal._SCALAR_REFERENCE_ROWS,
        },
    })

    # Each arm must win on its own side of the dispatch — asserted at the
    # ends of the measured range only (around the crossover the two are
    # within run-to-run noise of each other).
    smallest, largest = min(CROSSOVER_BATCHES), max(CROSSOVER_BATCHES)
    assert cells[smallest]["scalar_ms"] < cells[smallest]["slab_ms"]
    assert cells[largest]["slab_ms"] < cells[largest]["scalar_ms"]


def _timed(totals, name, fn):
    """``fn`` with its wall time accumulated into ``totals[name]``."""

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - started

    return wrapper


def test_fast_b512_step_split(bench_shape, benchmark):
    """One batch-512 ``search_fast`` and where its wall time goes.

    ``probe`` is the dense visited table's first-visit test (intra-gather
    dedup included), ``distance`` the rest of step ③ (gather + reduce of
    the fresh pairs, their packed candidate keys), ``merge`` step ①'s
    top-M merge, ``pick`` step ②'s parent choice, ``mark`` the selectable
    mask and the parent flags, ``retire`` decoding finished rows; what is
    left is the loop's own bookkeeping (neighbor gather, RNG seeding,
    retirement copies, counters).  The parent commit had no ``mark`` or
    ``retire`` function: that work sat in the loop body.
    """
    index, queries, config = bench_shape

    def best_ms():
        times = []
        for _ in range(SPLIT_REPEATS):
            t0 = time.perf_counter()
            result = index.search_fast(queries, K, config)
            times.append(time.perf_counter() - t0)
        return min(times) * 1e3, result.report

    def split_ms():
        totals = dict.fromkeys(
            ("probe", "first_visits", "merge", "pick", "mark", "retire"), 0.0
        )
        dense = traversal._DenseVisited
        with mock.patch.object(
            dense, "probe", _timed(totals, "probe", dense.probe)
        ), mock.patch.object(
            traversal.TraversalEngine,
            "_first_visits",
            _timed(totals, "first_visits", traversal.TraversalEngine._first_visits),
        ), mock.patch.object(
            dense, "merge", _timed(totals, "merge", dense.merge)
        ), mock.patch.object(
            traversal, "_pick_parents", _timed(totals, "pick", traversal._pick_parents)
        ), mock.patch.object(
            dense, "selectable", _timed(totals, "mark", dense.selectable)
        ), mock.patch.object(
            dense, "mark_parents", _timed(totals, "mark", dense.mark_parents)
        ), mock.patch.object(
            dense, "decode", _timed(totals, "retire", dense.decode)
        ):
            t0 = time.perf_counter()
            index.search_fast(queries, K, config)
            total = time.perf_counter() - t0
        totals["distance"] = totals.pop("first_visits") - totals["probe"]
        return total, totals

    def run():
        wall_ms, report = best_ms()
        # The split of the median-total run of the repeats (one wrapped run
        # is noisy; the wrappers themselves cost well under 1 %).
        runs = sorted((split_ms() for _ in range(SPLIT_REPEATS)), key=lambda r: r[0])
        return wall_ms, report, runs[len(runs) // 2]

    wall_ms, report, (split_total, split) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    after = {
        "best_ms": round(wall_ms, 2),
        "total_ms": round(split_total * 1e3, 2),
        **{f"{name}_ms": round(split[name] * 1e3, 2) for name in SPLIT_PARTS},
    }
    shares = {name: round(split[name] / split_total, 3) for name in SPLIT_PARTS}
    shares["other"] = round(1.0 - sum(shares.values()), 3)
    gathered_ratio = (
        report.distance_computations + report.skipped_distance_computations
    ) / report.distance_computations

    before = STEP_SPLIT_BEFORE
    emit(
        "ext_traversal_step_split",
        format_table(
            ["part", f"before ({before['commit']})", "after", "share of after"],
            [
                [name,
                 f"{before[f'{name}_ms']:.1f} ms" if f"{name}_ms" in before else "(in loop)",
                 f"{after[f'{name}_ms']:.1f} ms", f"{shares[name]:.0%}"]
                for name in SPLIT_PARTS
            ]
            + [["(loop bookkeeping)", "", "", f"{shares['other']:.0%}"],
               ["one search_fast (best of "
                f"{SPLIT_REPEATS})", f"{before['best_ms']:.1f} ms",
                f"{after['best_ms']:.1f} ms", ""]],
            title=(
                f"Extension: batch-{SPLIT_BATCH} search_fast by step, python wall "
                f"time ({CROSSOVER_ROWS}x{CROSSOVER_DIM}, degree {CROSSOVER_DEGREE}, "
                f"itopk {CROSSOVER_ITOPK}; usable lanes per computed distance "
                f"{gathered_ratio:.2f})"
            ),
        ),
    )
    config_cell = {
        "rows": CROSSOVER_ROWS, "dim": CROSSOVER_DIM, "degree": CROSSOVER_DEGREE,
        "k": K, "seed": SEED, "itopk": CROSSOVER_ITOPK, "batch": SPLIT_BATCH,
        "repeats": SPLIT_REPEATS,
    }
    _append_entry({
        "recorded": date.today().isoformat(),
        "bench": "ext_traversal_fast_b512",
        "clock": "wall",
        "config": {**config_cell, "statistic": "best"},
        "cells": {
            "before": {
                "commit": before["commit"],
                "wall_ms": before["best_ms"],
                "qps": round(SPLIT_BATCH / before["best_ms"] * 1e3, 1),
            },
            "after": {
                "wall_ms": after["best_ms"],
                "qps": round(SPLIT_BATCH / after["best_ms"] * 1e3, 1),
            },
        },
        "costs": {
            "speedup": round(before["best_ms"] / after["best_ms"], 3),
            "distance_computations": report.distance_computations,
            "usable_lanes_per_distance": round(gathered_ratio, 3),
        },
    })
    _append_entry({
        "recorded": date.today().isoformat(),
        "bench": "ext_traversal_step_split",
        "clock": "wall",
        "config": {**config_cell, "statistic": "median-total run"},
        "cells": {
            "before_ms": {k: v for k, v in before.items() if k != "commit"},
            "after_ms": after,
            "after_share": shares,
        },
        "costs": {"before_commit": before["commit"]},
    })

    # The parts are disjoint slices of one search (no timing floor is
    # asserted: ``before`` was measured on one particular box).
    assert 0.0 < sum(split.values()) < split_total
