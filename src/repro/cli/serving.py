"""Serving commands: ``serve`` (one server), ``route`` (a replica fleet),
``stream`` (a mutable index under mixed load)."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading

from repro.cli.common import (
    index_from_args,
    latency_ms,
    load_data,
    pick,
    search_config,
    served_recall,
)
from repro.cli.flags import config_from_args
from repro.core.metrics import recall as recall_of
from repro.router import (
    RouterConfig,
    ShardRouter,
    expected_quota_outcomes,
    run_fleet_closed_loop,
)
from repro.serve import (
    CagraServer,
    ServeConfig,
    make_zipf_schedule,
    run_closed_loop,
    run_open_loop,
)

__all__ = ["cmd_route", "cmd_serve", "cmd_stream"]


def cmd_serve(args) -> int:
    data, queries, metric, degree = load_data(args)
    index = ann = index_from_args(args, data, metric, degree)
    if args.mutable:
        from repro.stream import MutableIndex

        index = MutableIndex(ann, wal_dir=args.wal_dir or None,
                             fault_plan=args.fault_plan)
    config = config_from_args(
        ServeConfig, args,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        fault_plan=args.fault_plan,
        auto_rebuild=args.mutable and args.auto_rebuild,
    )
    num_requests = args.requests or max(1, int(args.rate * args.duration))
    server = CagraServer(index, config, search_config=search_config(args, ann)[0])
    with server:
        if args.mode == "open":
            report = run_open_loop(
                server, queries, rate_qps=args.rate,
                num_requests=num_requests, seed=args.seed,
            )
        else:
            report = run_closed_loop(
                server, queries, num_clients=args.clients,
                requests_per_client=max(1, num_requests // args.clients),
            )
        health = server.health()  # before stop: reflects the run, not shutdown
    stats = server.stats()
    rows, found = report.answers()
    recall = served_recall(found, rows, server.ann_index, queries, args.k)
    failed = report.count("failed")
    if args.format == "json":
        payload = {
            "mode": args.mode,
            "offered_rate_qps": args.rate if args.mode == "open" else None,
            "requests": num_requests,
            "submitted": len(report),
            "completed": report.count("ok"),
            "rejected": report.count("rejected"),
            "timed_out": report.count("timed_out"),
            "failed": failed,
            **pick(report, "duration_seconds", "achieved_qps"),
            "latency_ms": latency_ms(report, 50, 95, 99),
            "recall": recall,
            "stats": stats.to_dict(),
            "health": health,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"serving {index if args.mutable else ann.inner!r}")
        print(f"  scheduler: max_batch={config.max_batch} "
              f"max_wait={config.max_wait_ms}ms queue={config.queue_capacity} "
              f"timeout={config.default_timeout_ms}ms cache={config.cache_capacity}")
        print(report.summary())
        print(f"recall@{args.k} (served vs exact): {recall:.4f}")
        print(stats.summary())
        if health["status"] != "ok" or health["open_shards"]:
            print(f"health: {health['status']}  "
                  f"open_shards={health['open_shards']}  "
                  f"failure_rate={health['recent_failure_rate']:.3f}")
    return 1 if failed > 0 else 0


def cmd_route(args) -> int:
    """Replicated fleet under seeded Zipfian multi-tenant load: one index
    behind ``--replicas`` servers and a :class:`repro.router.ShardRouter`;
    reports fleet stats, health, served recall and — when quotas are on —
    the exact reconciliation of observed quota rejections against the
    reference token-bucket simulation (``docs/router.md``)."""
    data, queries, metric, degree = load_data(args)
    ann = index_from_args(args, data, metric, degree)
    # Breakers and the fault plan are the router's here; per-replica
    # servers keep ServeConfig's defaults for both (docs/router.md).
    router_config = config_from_args(
        RouterConfig, args, seed=args.seed, fault_plan=args.fault_plan
    )
    num_requests = args.requests or max(1, int(args.rate * args.duration))
    schedule = make_zipf_schedule(
        num_requests, num_tenants=args.tenants, num_query_rows=queries.shape[0],
        rate_qps=args.rate, zipf_s=args.zipf_s, seed=args.seed,
    )
    router = ShardRouter.build(
        ann, num_replicas=args.replicas, config=router_config,
        serve_config=config_from_args(ServeConfig, args),
        search_config=search_config(args, ann)[0],
    )
    chaos = []  # (method, argument) fired --chaos-after-s into the load
    if args.kill_replica >= 0:
        chaos.append((router.kill_replica, args.kill_replica))
    if args.rolling_swap:
        # Obtained up front so mid-load chaos measures the swap, not a build.
        chaos.append((router.rolling_swap, index_from_args(args, data, metric, degree)))
    timers = [threading.Timer(args.chaos_after_s, method, [arg]) for method, arg in chaos]
    with router:
        for timer in timers:
            timer.start()
        report = run_fleet_closed_loop(
            router, queries, schedule, num_clients=args.clients, k=args.k,
            timeout_ms=args.timeout_ms or None, pace=args.pace,
        )
        for timer in timers:
            timer.cancel()
            timer.join()
        health = router.health()
    stats = router.stats()

    rows, found = report.answers()
    recall = served_recall(found, rows, ann, queries, args.k)
    # Every replica refusing under backpressure leaves the request unserved:
    # the fleet counts it failed, as the router does.
    failed = report.count("failed") + report.count("rejected")
    quota_check = None
    if router_config.quota_rate_qps > 0.0:
        expected = expected_quota_outcomes(
            schedule, router_config.quota_rate_qps, router_config.quota_burst
        )
        observed = report.per_tenant("quota")
        quota_check = {
            "expected": expected,
            "observed": observed,
            "exact_match": expected == {t: observed.get(t, 0) for t in expected},
        }

    if args.format == "json":
        payload = {
            "replicas": args.replicas,
            "dispatch": router_config.dispatch,
            "hedge": router_config.hedge,
            "requests": num_requests,
            "tenants": schedule.num_tenants,
            "ok": report.count("ok"),
            "quota_rejected": report.count("quota"),
            "timed_out": report.count("timed_out"),
            "failed": failed,
            "hedged": int(report.hedged.sum()),
            "hedge_wins": int(report.hedge_won.sum()),
            "duration_seconds": report.duration_seconds,
            "latency_ms": latency_ms(report, 50, 95, 99),
            "recall": recall,
            "quota_check": quota_check,
            "stats": stats.to_dict(),
            "health": health.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"routing over {args.replicas} replicas "
            f"(dispatch={router_config.dispatch}, hedge={router_config.hedge}, "
            f"tenants={schedule.num_tenants})"
        )
        print(report.summary())
        print(f"recall@{args.k} (served vs exact): {recall:.4f}")
        if quota_check is not None:
            verdict = "exact" if quota_check["exact_match"] else "MISMATCH"
            print(f"quota rejections vs token-bucket model: {verdict} "
                  f"({report.count('quota')} rejected)")
        print(stats.summary())
        if health.status != "ok":
            print(f"fleet health: {health.status}  "
                  f"open_breakers={health.open_breakers}")
    return 1 if failed > 0 else 0


def cmd_stream(args) -> int:
    """Mutable-index lifecycle demo (``docs/streaming.md``): the dataset's
    tail is the insert pool, the rest the CAGRA base of a
    :class:`~repro.stream.MutableIndex` under a seeded closed loop of
    searches, inserts and deletes while the rebuilder folds the memtable
    back in.  Reports freshness, final recall against a brute-force oracle
    over the *live* rows, and every policy decision taken."""
    from repro.api import BruteForceIndex
    from repro.core.graph import INDEX_MASK
    from repro.stream import MutableIndex, run_mixed_closed_loop

    data, queries, metric, degree = load_data(args)
    pool_rows = min(max(args.clients, args.insert_pool), data.shape[0] // 2)
    base_data, pool = data[:-pool_rows], data[-pool_rows:]
    ann = index_from_args(args, base_data, metric, degree)
    index = MutableIndex(ann, wal_dir=args.wal_dir or None,
                         fault_plan=args.fault_plan)
    server = CagraServer(
        index, config_from_args(ServeConfig, args),
        search_config=search_config(args, ann)[0],
    )
    with server:
        report = run_mixed_closed_loop(
            server, queries, pool,
            num_clients=args.clients,
            ops_per_client=max(1, args.ops // args.clients),
            write_fraction=args.write_fraction,
            delete_fraction=args.delete_fraction,
            seed=args.seed,
        )
        rebuilder = server.rebuilder
        decisions = list(rebuilder.history()) if rebuilder is not None else []
    stats = server.stats()
    freshness = index.freshness()

    # Score the final state against an exact oracle over the live rows.
    oracle = BruteForceIndex(index.dataset, metric=index.metric)
    live = index.live_mask()
    truth = oracle.search(queries, args.k, filter_mask=live)
    got = index.search(queries, args.k)
    final_recall = recall_of(got.indices, truth.indices)
    served = {int(i) for row in got.indices for i in row if int(i) != int(INDEX_MASK)}
    dead_served = sorted(i for i in served if not live[i])
    decision_rows = [
        {
            **dataclasses.asdict(decision),
            "applied": report_.action if report_ is not None else None,
            "promote_latency_ms": latency * 1e3,
        }
        for decision, report_, latency in decisions
    ]
    failures = len(report) - report.count("ok")
    if args.format == "json":
        payload = {
            "ops": len(report),
            "searches": report.count("ok", "search"),
            "inserts": report.count("ok", "insert"),
            "deletes": report.count("ok", "delete"),
            "failures": failures,
            "duration_seconds": report.duration_seconds,
            "search_latency_ms": latency_ms(report, 50, 95),
            "final_recall_vs_live_oracle": final_recall,
            "deleted_ids_served_after_run": dead_served,
            "freshness": pick(
                freshness, "base_rows", "memtable_rows", "tombstone_rows",
                "live_rows", "tombstone_ratio", "epoch", "wal_seq",
            ),
            "decisions": decision_rows,
            "stats": stats.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"streaming over {ann.inner!r} (+{pool_rows}-row insert pool)")
        print(report.summary())
        print(f"final recall@{args.k} vs live brute-force oracle: {final_recall:.4f}")
        print(f"freshness: base={freshness.base_rows} "
              f"memtable={freshness.memtable_rows} "
              f"tombstones={freshness.tombstone_rows} "
              f"live={freshness.live_rows} epoch={freshness.epoch} "
              f"wal_seq={freshness.wal_seq}")
        if decision_rows:
            print("rebuilder decisions:")
            for row in decision_rows:
                applied = row["applied"] or "skipped"
                print(f"  {row['action']:<12} -> {applied:<12} "
                      f"({row['reason']}; memtable={row['memtable_rows']} "
                      f"tombstones={row['tombstone_ratio']:.2f} "
                      f"promote={row['promote_latency_ms']:.1f}ms)")
        print(stats.summary())
    if dead_served:
        print(f"ERROR: deleted ids served after the run: {dead_served}",
              file=sys.stderr)
        return 1
    return 1 if failures > 0 else 0
