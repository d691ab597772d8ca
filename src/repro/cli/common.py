"""What every index-touching command shares: the dataset, the index, the
search configuration and the served-recall score."""

from __future__ import annotations

import sys

import numpy as np

from repro.api import BuildSpec, UnknownIndexFormatError, build_from_spec, load_ann_index
from repro.baselines import exact_search
from repro.cli.flags import config_from_args
from repro.core.config import SearchConfig
from repro.core.metrics import recall as recall_of
from repro.datasets import load_dataset, make_queries, read_fvecs
from repro.parallel import ParallelConfig

__all__ = ["index_from_args", "latency_ms", "load_data", "pick", "search_config",
           "served_recall"]


def load_data(args) -> tuple[np.ndarray, np.ndarray, str, int]:
    """``(data, queries, metric, the dataset's Table I graph degree)``."""
    if args.fvecs:
        data = read_fvecs(args.fvecs)
        return data, make_queries(data, args.queries, seed=args.seed + 1), "sqeuclidean", 32
    bundle = load_dataset(args.dataset, scale=args.scale, num_queries=args.queries,
                          seed=args.seed)
    return bundle.data, bundle.queries, bundle.spec.metric, bundle.spec.graph_degree


def index_from_args(args, data, metric: str, dataset_degree: int, on_stage=None):
    """The one place the CLI gets an index: load ``--index``, else build
    ``--index-kind`` over ``data`` through the :mod:`repro.api` factory.

    Returns an :class:`repro.api.AnnIndex` adapter (native index on
    ``.inner``) carrying the ``--on-shard-failure`` / ``--min-quorum``
    policy.  Format sniffing and the ``index.load`` fault point live in
    :func:`repro.api.load_index`; kind, shards, dtype and seed handling in
    :func:`repro.api.build_from_spec`.  A missing or unreadable
    ``--index`` prints one line to stderr and exits 2, like any other
    usage error.
    """
    parallel = config_from_args(ParallelConfig, args)
    policy = {"on_shard_failure": args.on_shard_failure,
              "min_shard_quorum": args.min_quorum}
    if args.index:
        try:
            return load_ann_index(args.index, parallel=parallel,
                                  fault_plan=args.fault_plan, **policy)
        except (FileNotFoundError, UnknownIndexFormatError) as exc:
            print(f"cannot load --index {args.index!r}: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    params, degree = {}, args.degree
    if args.index_kind == "cagra":
        degree = degree or dataset_degree
        params = {"reordering": args.reordering}
    spec = config_from_args(BuildSpec, args, metric=metric, degree=degree, params=params)
    return build_from_spec(spec, data, parallel=parallel, on_stage=on_stage, **policy)


def search_config(args, ann):
    """``(SearchConfig, tuned profile or None)``: explicit flags > tuned
    profile > defaults.

    ``--profile`` is resolved against ``ann`` (a stale or corrupt profile
    warns and resolves to None); the search flags default to ``None``
    sentinels, which :func:`config_from_args` leaves to the layer below.
    """
    config, profile = SearchConfig(seed=args.seed), None
    if args.profile:
        from repro.tune import resolve_profile

        profile = resolve_profile(args.profile, data=ann.dataset,
                                  index_kind=ann.kind, k=args.k)
        if profile is not None:
            config = profile.search_config(base=config)
    return config_from_args(SearchConfig, args, base=config), profile


def served_recall(found: np.ndarray, rows: np.ndarray, ann, queries, k: int) -> float:
    """Recall of served answers ``found`` (for query rows ``rows``) against
    exact search over the index's own dataset; 0.0 when nothing was served."""
    if len(rows) == 0:
        return 0.0
    truth, _ = exact_search(ann.dataset, queries, k, metric=ann.metric)
    return recall_of(found, truth[rows])


def latency_ms(report, *percentiles: int) -> dict[str, float]:
    """``{"p50": …}`` from a load report's ``latency_percentile_ms``."""
    return {f"p{p}": report.latency_percentile_ms(p) for p in percentiles}


def pick(obj, *names: str) -> dict:
    """``{name: obj.name}`` in the order given: the report fields a JSON
    payload copies verbatim."""
    return {name: getattr(obj, name) for name in names}
