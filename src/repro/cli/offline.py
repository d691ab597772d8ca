"""Offline commands: ``info``, ``build``, ``search``, ``bench``, ``tune``,
``validate``."""

from __future__ import annotations

import json
import sys
import time

from repro.baselines import exact_search
from repro.cli.common import index_from_args, load_data, pick, search_config
from repro.core.metrics import recall as recall_of
from repro.datasets import DATASETS

__all__ = ["cmd_bench", "cmd_build", "cmd_info", "cmd_search", "cmd_tune",
           "cmd_validate"]


def cmd_info(args) -> int:
    print(f"{'name':<12}{'dim':>6}{'orig N':>12}{'metric':>15}{'degree':>8}{'default scale':>15}")
    for spec in DATASETS.values():
        print(
            f"{spec.name:<12}{spec.dim:>6}{spec.original_size:>12,}"
            f"{spec.metric:>15}{spec.graph_degree:>8}{spec.default_scale:>15,}"
        )
    return 0


def cmd_build(args) -> int:
    data, _, metric, degree = load_data(args)
    started = time.perf_counter()
    ann = index_from_args(args, data, metric, degree)
    elapsed = time.perf_counter() - started
    ann.save(args.out)
    if ann.num_shards > 1:
        detail = (f" ({args.shards} shard(s), backend={args.backend}, "
                  f"workers={args.num_workers or 'auto'})")
    elif ann.kind == "cagra":
        report = ann.inner.build_report
        detail = f" (knn {report.knn_seconds:.2f}s + optimize {report.optimize_seconds:.2f}s)"
    else:
        detail = ""
    print(f"built {ann.inner!r} in {elapsed:.2f}s{detail}")
    print(f"saved to {args.out}")
    return 0


def cmd_search(args) -> int:
    if not (args.index or args.index_kind):
        print("search needs --index (saved file) or --index-kind (build fresh)",
              file=sys.stderr)
        return 2
    data, queries, metric, degree = load_data(args)
    ann = index_from_args(args, data, metric, degree)
    config, profile = search_config(args, ann)
    started = time.perf_counter()
    result = ann.search(
        queries, args.k, config=config,
        mode="fast" if args.fast else "reference",
    )
    elapsed = time.perf_counter() - started
    truth, _ = exact_search(ann.dataset, queries, args.k, metric=ann.metric)
    measured_recall = recall_of(result.indices, truth)
    per_query = result.counters.get("distance_computations", 0) / queries.shape[0]
    degraded = bool(result.degraded)
    if args.format == "json":
        payload = {
            "queries": int(queries.shape[0]),
            "k": args.k,
            **pick(config, "itopk", "search_width", "max_iterations", "team_size",
                   "precision"),
            "profile": args.profile or None,
            "tuned": profile is not None,
            "algo": result.counters.get("algo", "unknown"),
            "index_kind": ann.kind,
            "fast_path": bool(args.fast),
            "elapsed_seconds": elapsed,
            "recall": measured_recall,
            "distance_computations_per_query": per_query,
            "degraded": degraded,
        }
        if degraded:
            payload["failed_shards"] = list(result.failed_shards)
            payload["skipped_shards"] = list(result.skipped_shards)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"searched {queries.shape[0]} queries in {elapsed:.3f}s (python wall time)")
    source = "tuned profile" if profile is not None else "defaults/flags"
    print(f"params ({source}): itopk={config.itopk} "
          f"search_width={config.search_width} "
          f"max_iterations={config.max_iterations or 'auto'} "
          f"team_size={config.team_size or 'auto'} "
          f"precision={config.precision}")
    print(f"recall@{args.k}: {measured_recall:.4f}")
    print(f"distance computations/query: {per_query:.0f}")
    if degraded:
        print(f"DEGRADED: failed shards {list(result.failed_shards)}, "
              f"skipped shards {list(result.skipped_shards)}")
    return 0


def _subject_curve(args, subject, queries, truth, sweep, base_config):
    """Recall–QPS curve for the ``--index-kind`` subject index."""
    from repro.bench import (
        MethodCurve,
        SweepPoint,
        run_beam_sweep_cpu,
        run_beam_sweep_gpu,
        run_cagra_sweep,
        run_hnsw_sweep,
    )

    kind, inner = args.index_kind, subject.inner
    if kind == "cagra":
        return run_cagra_sweep(
            inner, queries, truth, args.k, sweep, args.batch,
            base_config=base_config,
        )
    if kind == "hnsw":
        return run_hnsw_sweep(inner, queries, truth, args.k, sweep, args.batch)

    def search_at(q, k, beam):
        return inner.search(q, k, beam_width=beam)

    if kind in ("ggnn", "ganns"):
        return run_beam_sweep_gpu(
            kind.upper(), search_at, queries, truth, args.k, sweep, args.batch,
            dim=subject.dim, degree=getattr(inner, "degree", 24),
        )
    if kind == "nssg":
        return run_beam_sweep_cpu(
            "NSSG", search_at, queries, truth, args.k, sweep, args.batch,
            dim=subject.dim,
        )
    # Brute force is exact: one point, recall 1.0, CPU-scan pricing.
    from repro.gpusim import CpuCostModel

    result = subject.search(queries, args.k)
    dc = int(result.counters["distance_computations"])
    factor = args.batch / queries.shape[0]
    timing = CpuCostModel().search_time(int(dc * factor), 0, subject.dim, args.batch)
    return MethodCurve(method="BruteForce", points=[SweepPoint(
        param=args.k,
        recall=recall_of(result.indices, truth),
        qps=timing.qps(args.batch),
        seconds=timing.seconds,
        distance_computations_per_query=dc / queries.shape[0],
    )])


def cmd_bench(args) -> int:
    from repro.api import StageRecorder
    from repro.baselines import HnswIndex
    from repro.bench import format_curve_table, run_hnsw_sweep, speedup_at_recall

    data, queries, metric, degree = load_data(args)
    truth, _ = exact_search(data, queries, args.k, metric=metric)
    if args.format == "text":
        print(f"dataset: {args.dataset} n={data.shape[0]} dim={data.shape[1]} metric={metric}")
    recorder = StageRecorder()
    subject = index_from_args(args, data, metric, degree, on_stage=recorder.on_stage)
    # One instrumented probe search so the report carries per-stage
    # search timings next to the build stage (sweeps below use the
    # native paths the cost models price).
    subject.search(queries, args.k, on_stage=recorder.on_stage)
    base_search, profile = search_config(args, subject)
    sweep = sorted({max(args.k, v) for v in (10, 16, 32, 64, 128)})
    if profile is not None and args.index_kind == "cagra":
        # Make sure the tuned operating point itself appears on the curve.
        sweep = sorted(set(sweep) | {profile.chosen.itopk})
    curves = [_subject_curve(args, subject, queries, truth, sweep, base_search)]
    # The paper's CPU comparator; redundant when it *is* the subject.
    if args.index_kind != "hnsw":
        hnsw = HnswIndex(
            data, m=args.hnsw_m, ef_construction=args.hnsw_efc, metric=metric
        ).build()
        curves.append(
            run_hnsw_sweep(hnsw, queries, truth, args.k, sweep, args.batch)
        )
    if args.format == "json":
        from dataclasses import asdict

        speedups = {}
        if len(curves) > 1:
            for target in (0.90, 0.95):
                ours = curves[0].qps_at_recall(target)
                theirs = curves[1].qps_at_recall(target)
                speedups[f"{target:.2f}"] = (
                    ours / theirs if ours is not None and theirs is not None else None
                )
        print(json.dumps({
            "dataset": args.dataset,
            "n": int(data.shape[0]),
            "dim": int(data.shape[1]),
            "metric": metric,
            "batch": args.batch,
            "k": args.k,
            "index_kind": args.index_kind,
            "profile": args.profile or None,
            "search_width": base_search.search_width,
            "max_iterations": base_search.max_iterations,
            "hnsw": {"m": args.hnsw_m, "ef_construction": args.hnsw_efc},
            "curves": [asdict(curve) for curve in curves],
            "speedup_vs_hnsw_at_recall": speedups,
            "stages": recorder.as_records(),
        }, indent=2))
        return 0
    print(format_curve_table(curves, f"batch={args.batch} recall@{args.k}"))
    if len(curves) > 1:
        print()
        print(speedup_at_recall(curves, "HNSW", [0.90, 0.95]))
    return 0


def _parse_grid(spec: str, flag: str) -> tuple[int, ...] | None:
    """``"16,32,64"`` → ``(16, 32, 64)``; empty → None (grid default)."""
    if not spec:
        return None
    try:
        values = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated integers, got {spec!r}")
    if not values:
        raise SystemExit(f"{flag} expects at least one value")
    return values


def cmd_tune(args) -> int:
    """Offline auto-tune: sweep the grid, report the frontier, save a profile."""
    import os

    from repro.tune import (
        TuneGrid,
        default_profile_dir,
        profile_filename,
        tune_search_params,
    )

    grid_kwargs = {}
    itopk_values = _parse_grid(args.itopk_grid, "--itopk-grid")
    width_values = _parse_grid(args.width_grid, "--width-grid")
    if itopk_values:
        grid_kwargs["itopk_values"] = itopk_values
    if width_values:
        grid_kwargs["search_widths"] = width_values
    data, queries, metric, degree = load_data(args)
    ann = index_from_args(args, data, metric, degree)
    if ann.kind != "cagra":
        print(f"tune needs a monolithic CAGRA index, got {ann.kind!r}", file=sys.stderr)
        return 2
    index = ann.inner
    profile = tune_search_params(
        index,
        k=args.k,
        recall_target=args.recall_target,
        queries=queries,
        grid=TuneGrid(**grid_kwargs),
        batch_size=args.batch,
        base_config=search_config(args, ann)[0],
        created=time.strftime("%Y-%m-%d"),
    )
    out = args.out or os.path.join(
        default_profile_dir(),
        profile_filename(profile.fingerprint, profile.index_kind, profile.k),
    )
    profile.save(out)
    if args.format == "json":
        print(json.dumps({"path": out, "profile": profile.to_dict()}, indent=2))
        return 0
    print(f"tuned {index!r} for recall@{args.k} >= {args.recall_target} "
          f"(simulated batch {args.batch}, {queries.shape[0]} queries)")
    print(f"{'itopk':>6} {'width':>6} {'max_it':>7} {'recall':>8} {'QPS':>14}")
    for point in profile.sweep:
        marker = " <= chosen" if point == profile.chosen else ""
        print(f"{point.itopk:>6} {point.search_width:>6} "
              f"{point.max_iterations or 'auto':>7} {point.recall:>8.4f} "
              f"{point.qps:>14,.0f}{marker}")
    print(f"baseline (itopk={profile.baseline.itopk}): "
          f"recall {profile.baseline.recall:.4f}, "
          f"QPS {profile.baseline.qps:,.0f}")
    print(f"chosen: itopk={profile.chosen.itopk} "
          f"search_width={profile.chosen.search_width} "
          f"max_iterations={profile.chosen.max_iterations or 'auto'} "
          f"-> {profile.speedup():.2f}x baseline QPS")
    if not profile.meets_target:
        print(f"WARNING: no grid point reached recall {args.recall_target}; "
              f"profile records the best-recall point "
              f"({profile.chosen.recall:.4f})", file=sys.stderr)
    print(f"saved to {out}")
    return 0


def cmd_validate(args) -> int:
    from repro import CagraIndex, validate_index

    # FixedDegreeGraph refuses to construct from ids that are out of
    # range, so a corrupt file fails at load time — report it as an
    # audit failure rather than a traceback.
    try:
        index = CagraIndex.load(args.index)
    except (ValueError, OSError, KeyError) as exc:
        print(f"index INVALID: failed to load {args.index!r}: {exc}",
              file=sys.stderr)
        return 1
    report = validate_index(index, sample=args.sample)
    print(report.summary())
    return 0 if report.ok else 1
