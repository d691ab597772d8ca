"""Unit tests for repro.bench — harness and reporting."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import SearchConfig
from repro.baselines import BeamCounters, HnswIndex
from repro.bench import (
    MethodCurve,
    SweepPoint,
    beam_to_report,
    format_curve_table,
    format_table,
    run_beam_sweep_cpu,
    run_beam_sweep_gpu,
    run_cagra_sweep,
    run_hnsw_sweep,
    scale_report,
    speedup_at_recall,
)
from repro.core.search import _NOT_ADDITIVE, CostReport


def _curve(name, pairs):
    return MethodCurve(
        method=name,
        points=[SweepPoint(param=i, recall=r, qps=q, seconds=1 / q,
                           distance_computations_per_query=100)
                for i, (r, q) in enumerate(pairs)],
    )


class TestMethodCurve:
    def test_qps_at_recall_picks_best_eligible(self):
        curve = _curve("x", [(0.90, 100.0), (0.95, 60.0), (0.99, 20.0)])
        assert curve.qps_at_recall(0.95) == 60.0
        assert curve.qps_at_recall(0.91) == 60.0
        assert curve.qps_at_recall(0.999) is None

    def test_max_recall(self):
        assert _curve("x", [(0.5, 1.0), (0.8, 0.5)]).max_recall() == 0.8
        assert MethodCurve("empty", []).max_recall() == 0.0


class TestScaleReport:
    def test_counters_scale_linearly(self):
        report = CostReport(
            batch_size=10, cta_count=10, iterations=100,
            distance_computations=1000, hash_probes=2000,
            hash_in_shared=True, hash_log2_size=11,
        )
        scaled = scale_report(report, 100.0)
        assert scaled.batch_size == 1000
        assert scaled.cta_count == 1000
        assert scaled.distance_computations == 100_000
        assert scaled.hash_probes == 200_000
        assert scaled.hash_in_shared
        assert scaled.hash_log2_size == 11

    def test_downscale(self):
        report = CostReport(batch_size=100, cta_count=100, distance_computations=5000)
        scaled = scale_report(report, 0.01)
        assert scaled.batch_size == 1
        assert scaled.distance_computations == 50


def _scale_report_before_derivation(report: CostReport, factor: float) -> CostReport:
    """The hand-listed body ``scale_report`` had before it was derived
    from ``fields(CostReport)`` — kept verbatim as the oracle."""
    return CostReport(
        algo=report.algo,
        batch_size=max(1, int(round(report.batch_size * factor))),
        cta_count=max(1, int(round(report.cta_count * factor))),
        iterations=int(report.iterations * factor),
        serial_queue_ops=int(report.serial_queue_ops * factor),
        distance_computations=int(report.distance_computations * factor),
        skipped_distance_computations=int(report.skipped_distance_computations * factor),
        recomputed_distances=int(report.recomputed_distances * factor),
        candidate_gathers=int(report.candidate_gathers * factor),
        sort_comparator_ops=int(report.sort_comparator_ops * factor),
        radix_sorted_elements=int(report.radix_sorted_elements * factor),
        hash_lookups=int(report.hash_lookups * factor),
        hash_probes=int(report.hash_probes * factor),
        hash_insertions=int(report.hash_insertions * factor),
        hash_resets=int(report.hash_resets * factor),
        hash_in_shared=report.hash_in_shared,
        hash_log2_size=report.hash_log2_size,
        random_inits=int(report.random_inits * factor),
        kernel_launches=report.kernel_launches,
    )


def _random_report(rng) -> CostReport:
    report = CostReport(
        algo=str(rng.choice(["single_cta", "multi_cta"])),
        batch_size=int(rng.integers(0, 5000)),
        hash_in_shared=bool(rng.integers(0, 2)),
        hash_log2_size=int(rng.integers(0, 20)),
        kernel_launches=int(rng.integers(1, 4)),
        extras={"dropped": 1},
    )
    for f in dataclasses.fields(CostReport):
        if f.name not in _NOT_ADDITIVE:
            setattr(report, f.name, int(rng.integers(0, 10**9)))
    return report


class TestScaleReportDerived:
    def test_matches_the_hand_listed_body(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            report = _random_report(rng)
            factor = float(rng.choice([0.0, 0.01, 0.5, 1.0, 3.7, 400.0, rng.random() * 50]))
            assert scale_report(report, factor) == _scale_report_before_derivation(
                report, factor
            )

    def test_linear_on_every_additive_field(self):
        report = _random_report(np.random.default_rng(23))
        for factor in (2, 10, 1000):
            scaled = scale_report(report, factor)
            for f in dataclasses.fields(CostReport):
                if f.name not in _NOT_ADDITIVE:
                    assert getattr(scaled, f.name) == factor * getattr(report, f.name)
        assert scale_report(report, 2.0).extras == {}

    def test_is_the_core_function(self):
        from repro.core.search import scale_report as core_scale_report

        assert scale_report is core_scale_report


class TestBeamToReport:
    def test_translation(self):
        counters = BeamCounters(distance_computations=400, hops=40, queries=4)
        report = beam_to_report(counters, degree=32, beam_width=64)
        assert report.cta_count == 4
        assert report.distance_computations == 400
        assert report.candidate_gathers == 40 * 32
        assert report.serial_queue_ops == 400 * 6  # log2(64)
        assert not report.hash_in_shared


class TestSweepRunners:
    def test_cagra_sweep(self, small_index, small_queries, small_truth):
        curve = run_cagra_sweep(
            small_index, small_queries, small_truth, 10, [16, 64], 10_000,
            SearchConfig(algo="single_cta"),
        )
        assert len(curve.points) == 2
        assert all(p.qps > 0 for p in curve.points)
        assert curve.points[1].recall >= curve.points[0].recall - 0.02

    def test_hnsw_sweep(self, small_data, small_queries, small_truth):
        hnsw = HnswIndex(small_data, m=8, ef_construction=40).build()
        curve = run_hnsw_sweep(hnsw, small_queries, small_truth, 10, [16, 64], 10_000)
        assert len(curve.points) == 2
        assert all(p.qps > 0 for p in curve.points)

    def test_gpu_beam_sweep(self, small_index, small_queries, small_truth):
        from repro.baselines import nssg_search

        def fn(queries, k, beam):
            return nssg_search(
                small_index.dataset, small_index.graph, queries, k, beam_width=beam
            )

        curve = run_beam_sweep_gpu(
            "X", fn, small_queries, small_truth, 10, [32], 10_000, dim=32, degree=16
        )
        assert curve.points[0].qps > 0

    def test_cpu_beam_sweep(self, small_index, small_queries, small_truth):
        from repro.baselines import nssg_search

        def fn(queries, k, beam):
            return nssg_search(
                small_index.dataset, small_index.graph, queries, k, beam_width=beam
            )

        curve = run_beam_sweep_cpu(
            "X", fn, small_queries, small_truth, 10, [32], 10_000, dim=32
        )
        assert curve.points[0].qps > 0

    def test_gpu_baseline_priced_above_cagra_kernel(
        self, small_index, small_queries, small_truth
    ):
        """At matched work, the un-teamed device-hash kernel must be slower
        than CAGRA's (the Fig. 13 GPU-vs-GPU gap)."""
        from repro.baselines import nssg_search

        cagra = run_cagra_sweep(
            small_index, small_queries, small_truth, 10, [64], 10_000,
            SearchConfig(algo="single_cta"),
        )

        def fn(queries, k, beam):
            return nssg_search(
                small_index.dataset, small_index.graph, queries, k, beam_width=beam
            )

        baseline = run_beam_sweep_gpu(
            "X", fn, small_queries, small_truth, 10, [64], 10_000, dim=32, degree=16
        )
        # Normalize per distance computation to factor out work differences.
        c = cagra.points[0]
        b = baseline.points[0]
        cagra_time_per_dist = c.seconds / max(1, c.distance_computations_per_query)
        base_time_per_dist = b.seconds / max(1, b.distance_computations_per_query)
        assert base_time_per_dist > cagra_time_per_dist


def four_curves(index, data, queries, truth) -> dict:
    """One curve per public sweep runner, on the small session fixtures.

    The recorder of ``fixtures/sweep_curves.json``: re-record (only ever
    from a commit whose search is trusted) by writing
    ``json.dumps(four_curves(...), indent=1, sort_keys=True) + "\\n"`` on
    the ``small_index`` / ``small_data`` / ``small_queries`` /
    ``small_truth`` fixtures.
    """
    from repro.baselines import nssg_search

    def beam(queries, k, width):
        return nssg_search(index.dataset, index.graph, queries, k, beam_width=width)

    hnsw = HnswIndex(data, m=8, ef_construction=40).build()
    curves = [
        run_cagra_sweep(index, queries, truth, 10, [16, 64], 10_000,
                        SearchConfig(algo="single_cta")),
        run_hnsw_sweep(hnsw, queries, truth, 10, [16, 64], 10_000, threads=8),
        run_beam_sweep_gpu("beam-gpu", beam, queries, truth, 10, [32, 64], 10_000,
                           dim=32, degree=16),
        run_beam_sweep_cpu("beam-cpu", beam, queries, truth, 10, [32, 64], 10_000,
                           dim=32, threads=4),
    ]
    return {curve.method: dataclasses.asdict(curve) for curve in curves}


class TestSweepParity:
    def test_all_four_runners_reproduce_the_pre_refactor_curves(
        self, small_index, small_data, small_queries, small_truth
    ):
        """``fixtures/sweep_curves.json`` was recorded with the four
        hand-copied loops, before they were routed through one."""
        pinned = json.loads(
            (Path(__file__).parent / "fixtures" / "sweep_curves.json").read_text()
        )
        live = four_curves(small_index, small_data, small_queries, small_truth)
        assert live.keys() == pinned.keys()
        for method, curve in pinned.items():
            assert len(live[method]["points"]) == len(curve["points"])
            for got, want in zip(live[method]["points"], curve["points"]):
                assert got == pytest.approx(want, rel=1e-9), method


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_curve_table_contains_methods(self):
        text = format_curve_table([_curve("alpha", [(0.9, 10.0)])], title="T")
        assert "T" in text
        assert "alpha" in text

    def test_speedup_table(self):
        curves = [
            _curve("ref", [(0.95, 10.0)]),
            _curve("fast", [(0.95, 40.0)]),
        ]
        text = speedup_at_recall(curves, "ref", [0.95])
        assert "4.0x" in text

    def test_speedup_unreachable_target(self):
        curves = [_curve("ref", [(0.9, 10.0)]), _curve("slow", [(0.8, 1.0)])]
        text = speedup_at_recall(curves, "ref", [0.99])
        assert "n/a" in text

    def test_speedup_missing_reference_raises(self):
        with pytest.raises(KeyError):
            speedup_at_recall([_curve("a", [(0.9, 1.0)])], "zzz", [0.9])


class TestFormatting:
    def test_fmt_large_numbers(self):
        from repro.bench.reporting import _fmt

        assert _fmt(1234567.0) == "1,234,567"
        assert _fmt(12.345) == "12.35"
        assert _fmt(0.01234) == "0.0123"
        assert _fmt(0.0) == "0"
        assert _fmt("text") == "text"
        assert _fmt(7) == "7"

    def test_table_handles_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
        assert len(text.splitlines()) == 2


class TestIterationTrace:
    def test_recall_monotone_in_budget(self, small_index, small_queries, small_truth):
        from repro.bench import iteration_trace

        points = iteration_trace(
            small_index, small_queries, small_truth, 10, [1, 4, 16, 64],
            SearchConfig(itopk=64),
        )
        assert len(points) == 4
        recalls = [p.recall for p in points]
        assert recalls[-1] >= recalls[0]
        assert recalls[-1] > 0.9
        # Work grows with budget.
        dists = [p.distance_computations_per_query for p in points]
        assert dists[-1] >= dists[0]

    def test_convergence_fraction_rises(self, small_index, small_queries, small_truth):
        from repro.bench import iteration_trace

        points = iteration_trace(
            small_index, small_queries, small_truth, 10, [2, 128],
            SearchConfig(itopk=32),
        )
        assert points[-1].converged_fraction > points[0].converged_fraction

    def test_budget_validation(self, small_index, small_queries, small_truth):
        from repro.bench import iteration_trace

        with pytest.raises(ValueError, match="budgets"):
            iteration_trace(small_index, small_queries, small_truth, 10, [0])
