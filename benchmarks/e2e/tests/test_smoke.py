"""Every workload end to end on the smoke profile (never a recorded number)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
import spec

HERE = Path(__file__).resolve().parents[1]
SECONDS = 2


def run(workload, seed=3, trace=0, tmp=None):
    out = tmp / f"{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
         "--profile", "smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    began = time.perf_counter()
    untraced = {w: run(w, tmp=tmp) for w in spec.WORKLOADS}
    elapsed = time.perf_counter() - began
    return {
        "untraced": untraced,
        "elapsed": elapsed,
        "traced": run("online", trace=1, tmp=tmp),
        "again": run("offline_batch", tmp=tmp),
        "other_seed": run("offline_batch", seed=4, tmp=tmp),
    }


def test_all_four_workloads_finish_quickly(runs):
    assert runs["elapsed"] < 90


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_reports_exactly_the_end_to_end_metrics(runs, workload):
    stdout, document = runs["untraced"][workload]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        reported = last["metrics"][metric.name]
        assert set(reported) == {"value", "unit"} and reported["unit"] == metric.unit
        assert reported["value"] != 0
        assert f"\n{metric.name} " in stdout  # printed by name in the table
        detail = document["metrics"][metric.name]
        assert detail["clock"] == metric.clock and detail["samples"] >= 1
    assert document["failures"] == []


def test_result_file_carries_a_provenance_stamp(runs):
    _, document = runs["untraced"]["build"]
    stamp = document["provenance"]
    assert {"commit", "python", "numpy", "scipy", "nproc", "load_average_at_start",
            "seed", "profile", "seconds", "trace", "malloc_pinned"} <= set(stamp)
    assert stamp["profile"] == "smoke" and stamp["seed"] == 3
    assert document["phase_seconds"]["build"] > 0
    # Two warm builds, neither of which had to fault its memory in again.
    assert stamp["malloc_pinned"] is True
    assert len(document["timed_build_minor_faults"]) == 2


def test_traced_run_reports_exactly_the_per_layer_metrics(runs):
    stdout, document = runs["traced"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert list(last["metrics"]) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert f"\n{metric.name} " in stdout
    assert "bench.trace_overhead_fraction" in document["metrics"]


def test_ladder_self_times_sum_to_the_end_to_end_p50(runs):
    _, document = runs["traced"]
    metrics = document["metrics"]
    total = sum(metrics[f"{rung}.ladder_self_ms"]["value"] for rung in spans.LADDER_RUNGS)
    assert total == pytest.approx(metrics["ladder.e2e_p50_ms"]["value"], rel=1e-9)
    # ... and the same numbers can be recomputed from the span file alone.
    records = [
        json.loads(line)
        for line in (HERE / "out" / "trace-online.jsonl").read_text().splitlines()
    ]
    selfs = spans.ladder_self_times(records)
    assert selfs["e2e"] == pytest.approx(metrics["ladder.e2e_p50_ms"]["value"])
    kinds = {record["kind"] for record in records}
    assert kinds == {"span", "stage"}
    children = [r for r in records if r["kind"] == "span" and r["parent"] is not None]
    assert children, "nested spans record the span that caused them"


def test_tail_metrics_have_ten_samples_beyond_them(runs):
    _, document = runs["traced"]
    tails = {name: detail for name, detail in document["metrics"].items()
             if name.endswith(("p95_ms", "p90_ms"))}
    assert len(tails) == 11
    for name, detail in tails.items():
        beyond = 0.10 if name.endswith("p90_ms") else 0.05
        assert detail["samples"] * beyond >= 10, name


def _exact(document):
    return {
        name: detail["value"]
        for name, detail in document["metrics"].items()
        if detail["clock"] in ("modelled", "count")
    }


def test_same_seed_repeats_modelled_metrics_and_counts_exactly(runs):
    first = _exact(runs["untraced"]["offline_batch"][1])
    again = _exact(runs["again"][1])
    assert first and first == again


def test_another_seed_gives_other_inputs(runs):
    first = _exact(runs["untraced"]["offline_batch"][1])
    other = _exact(runs["other_seed"][1])
    assert first["modelled_gpu_qps"] != other["modelled_gpu_qps"]
    assert (first["core.traversal.distance_computations_per_query"]
            != other["core.traversal.distance_computations_per_query"])


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    """A directory holding only BENCHMARK.json and benchmarks/e2e."""
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
