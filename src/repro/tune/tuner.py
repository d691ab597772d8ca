"""Offline search-parameter auto-tuner (recall target → tuned config).

The paper picks search parameters by hand per dataset (Table I/V:
``itopk`` 64–512, ``search_width`` 1–4 depending on recall regime).
This module automates that: given an index and a recall target, sweep
``itopk × search_width × max_iterations × team_size`` over a query
sample with the
lockstep fast path, measure genuine recall against the brute-force
oracle, price each point's operation counters with the GPU cost model
(same pipeline as :func:`repro.bench.harness.run_cagra_sweep`), and pick
the cheapest point on the recall/QPS frontier that meets the target.

The result is persisted as a :class:`repro.tune.profile.TunedProfile`
keyed by dataset fingerprint × index kind × k, so serving and the CLI
can apply it without re-tuning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.bruteforce import exact_search
from repro.core.config import SearchConfig, choose_algo
from repro.core.index import CagraIndex
from repro.core.metrics import recall as recall_of
from repro.core.search import scale_report
from repro.gpusim import GpuCostModel
from repro.tune.profile import TunedPoint, TunedProfile, dataset_fingerprint

__all__ = ["TuneGrid", "tune_search_params", "sample_queries"]

#: Simulated launch batch used for QPS pricing (the paper's large-batch
#: throughput regime, Fig. 10).
DEFAULT_BATCH_SIZE = 10_000

#: Queries sampled from the dataset when the caller provides none.
DEFAULT_NUM_QUERIES = 128


@dataclass(frozen=True)
class TuneGrid:
    """The swept parameter grid.

    Defaults bracket the paper's hand-picked settings: ``itopk`` from
    just-above-``k`` to 2× the library default, widths 1/2/4, and the
    automatic iteration bound.  ``itopk`` values below ``k`` are dropped
    at sweep time (the internal list must hold the result).
    """

    itopk_values: tuple[int, ...] = (16, 32, 64, 96, 128)
    search_widths: tuple[int, ...] = (1, 2, 4)
    max_iterations_values: tuple[int, ...] = (0,)
    #: Distance-team widths swept (schema v2).  0 = auto from dim; the
    #: default sweeps only auto so v1-sized grids stay the same size —
    #: pass e.g. ``(0, 4, 8, 16, 32)`` to let the cost model separate
    #: per-team load waste at the dataset's dimensionality.
    team_size_values: tuple[int, ...] = (0,)

    def points(self, k: int):
        """Valid (itopk, search_width, max_iterations, team_size) tuples."""
        itopks = [m for m in self.itopk_values if m >= k] or [max(k, 16)]
        for itopk in itopks:
            for width in self.search_widths:
                for max_iter in self.max_iterations_values:
                    for team in self.team_size_values:
                        yield itopk, width, max_iter, team


def sample_queries(
    dataset: np.ndarray, num_queries: int = DEFAULT_NUM_QUERIES
) -> np.ndarray:
    """An evenly-strided row sample used as the tuning query set.

    Self-queries are fine for tuning: the sweep compares configurations
    against each other on identical queries, and recall@k against the
    exact oracle still separates under- from over-provisioned settings
    (the trivial self-hit occupies one of k slots for every config).
    """
    n = dataset.shape[0]
    take = max(1, min(int(num_queries), n))
    stride = max(1, n // take)
    return np.ascontiguousarray(dataset[::stride][:take])


def _measure_point(
    index: CagraIndex,
    queries: np.ndarray,
    truth: np.ndarray,
    k: int,
    config: SearchConfig,
    batch_size: int,
    gpu: GpuCostModel,
) -> TunedPoint:
    """Run one configuration and price it at the simulated batch size."""
    real_batch = queries.shape[0]
    result = index.search_fast(queries, k, config=config)
    report = scale_report(result.report, batch_size / real_batch)
    # Fig. 7 rule applies to the batch actually launched, not the probe.
    report.algo = choose_algo(config, batch_size, num_sms=gpu.spec.num_sms)
    timing = gpu.search_time(
        report,
        index.dim,
        dtype_bytes=index.dataset.dtype.itemsize,
        team_size=config.team_size,
        itopk=config.itopk,
        search_width=config.search_width,
    )
    return TunedPoint(
        itopk=config.itopk,
        search_width=config.search_width,
        max_iterations=config.max_iterations,
        recall=recall_of(result.indices, truth),
        qps=timing.qps(batch_size),
        distance_computations_per_query=result.report.distance_computations
        / real_batch,
        team_size=config.team_size,
    )


def _select(points: list[TunedPoint], recall_target: float) -> tuple[TunedPoint, bool]:
    """Cheapest point meeting the target, else the best-recall point."""
    eligible = [p for p in points if p.recall >= recall_target]
    if eligible:
        return max(eligible, key=lambda p: p.qps), True
    return max(points, key=lambda p: (p.recall, p.qps)), False


def tune_search_params(
    index: CagraIndex,
    k: int = 10,
    recall_target: float = 0.95,
    queries: np.ndarray | None = None,
    grid: TuneGrid | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    num_queries: int = DEFAULT_NUM_QUERIES,
    base_config: SearchConfig | None = None,
    index_kind: str = "cagra",
    gpu: GpuCostModel | None = None,
    created: str = "",
    on_stage=None,
) -> TunedProfile:
    """Sweep the grid and return the tuned profile for (dataset, kind, k).

    ``queries`` defaults to a strided sample of the indexed dataset;
    ground truth always comes from the brute-force oracle so recall is
    genuine.  ``base_config`` seeds non-swept fields (seed, team size,
    hash policy).  ``on_stage("tune.point", seconds, counters)`` fires
    per grid point for unified instrumentation.
    """
    grid = grid or TuneGrid()
    gpu = gpu or GpuCostModel()
    base_config = base_config or SearchConfig()
    if queries is None:
        queries = sample_queries(index.dataset, num_queries)
    queries = np.atleast_2d(queries)
    truth, _ = exact_search(index.dataset, queries, k, metric=index.metric)

    sweep: list[TunedPoint] = []
    for itopk, width, max_iter, team in grid.points(k):
        config = base_config.with_overrides(
            itopk=itopk, search_width=width, max_iterations=max_iter,
            team_size=team,
        )
        started = time.perf_counter()
        point = _measure_point(index, queries, truth, k, config, batch_size, gpu)
        if on_stage is not None:
            on_stage(
                "tune.point",
                time.perf_counter() - started,
                {
                    "itopk": point.itopk,
                    "search_width": point.search_width,
                    "max_iterations": point.max_iterations,
                    "team_size": point.team_size,
                    "recall": point.recall,
                    "qps": point.qps,
                },
            )
        sweep.append(point)

    baseline_config = base_config.with_overrides(
        itopk=max(SearchConfig().itopk, k), search_width=1, max_iterations=0
    )
    baseline = next(
        (
            p
            for p in sweep
            if (p.itopk, p.search_width, p.max_iterations, p.team_size)
            == (
                baseline_config.itopk,
                baseline_config.search_width,
                baseline_config.max_iterations,
                baseline_config.team_size,
            )
        ),
        None,
    ) or _measure_point(index, queries, truth, k, baseline_config, batch_size, gpu)

    chosen, meets_target = _select(sweep, recall_target)
    return TunedProfile(
        fingerprint=dataset_fingerprint(index.dataset),
        index_kind=index_kind,
        metric=index.metric,
        k=k,
        recall_target=recall_target,
        batch_size=batch_size,
        chosen=chosen,
        baseline=baseline,
        meets_target=meets_target,
        sweep=tuple(sweep),
        created=created,
    )
