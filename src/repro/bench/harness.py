"""Sweep runners producing recall–QPS curves for every method.

Each runner executes the real algorithm on a real query set (recall is
genuine), prices the operation counters with the appropriate cost model,
and scales the counters to the paper's target batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.beam import BeamCounters
from repro.core.config import SearchConfig, choose_algo
from repro.core.index import CagraIndex
from repro.core.metrics import recall as recall_of
from repro.core.search import CostReport, scale_report
from repro.gpusim import CpuCostModel, GpuCostModel

__all__ = [
    "SweepPoint",
    "MethodCurve",
    "scale_report",
    "beam_to_report",
    "run_cagra_sweep",
    "run_hnsw_sweep",
    "run_beam_sweep_gpu",
    "run_beam_sweep_cpu",
]


@dataclass
class SweepPoint:
    """One point of a recall–QPS curve."""

    param: int
    recall: float
    qps: float
    seconds: float
    distance_computations_per_query: float


@dataclass
class MethodCurve:
    """A method's recall–QPS curve over its sweep parameter."""

    method: str
    points: list[SweepPoint]

    def qps_at_recall(self, target: float) -> float | None:
        """Best QPS among points whose recall meets ``target`` (the
        paper's "N× faster at R% recall" metric); None if unreachable."""
        eligible = [p.qps for p in self.points if p.recall >= target]
        return max(eligible) if eligible else None

    def max_recall(self) -> float:
        return max((p.recall for p in self.points), default=0.0)


def beam_to_report(
    counters: BeamCounters,
    degree: int,
    beam_width: int,
    hash_in_shared: bool = False,
) -> CostReport:
    """Translate beam-search counters into a priceable :class:`CostReport`.

    Models the GPU baselines' kernels (GGNN/GANNS): one CTA per query,
    device-memory visited set (~2 probes per candidate: lookup + insert),
    and priority-queue maintenance priced as *serialized* heap updates of
    depth ``log2(beam)`` per candidate — unlike CAGRA's warp-wide bitonic
    merge, a bounded priority queue updates one element at a time.
    """
    queries = max(1, counters.queries)
    return CostReport(
        algo="single_cta",
        batch_size=queries,
        cta_count=queries,
        iterations=counters.hops,
        distance_computations=counters.distance_computations,
        candidate_gathers=counters.hops * degree,
        serial_queue_ops=counters.distance_computations
        * max(1, int(math.log2(max(2, beam_width)))),
        hash_lookups=counters.distance_computations,
        hash_probes=counters.distance_computations * 2,
        hash_insertions=counters.distance_computations,
        hash_in_shared=hash_in_shared,
        hash_log2_size=13,
    )


def _run_sweep(
    method, search_fn, queries, truth, k, params, batch_size, price
) -> MethodCurve:
    """The one sweep body behind the four public runners.

    For each knob value, ``search_fn(queries, k, param)`` runs the real
    algorithm and returns ``(ids, dists, counters)`` (counters: anything
    with ``distance_computations``); ``price(param, counters, factor)``
    returns the modelled timing of the simulated batch, ``factor`` being
    simulated / real batch size.
    """
    real_batch = np.atleast_2d(queries).shape[0]
    factor = batch_size / real_batch
    points = []
    for param in params:
        ids, _, counters = search_fn(queries, k, param)
        timing = price(param, counters, factor)
        points.append(
            SweepPoint(
                param=param,
                recall=recall_of(ids, truth),
                qps=timing.qps(batch_size),
                seconds=timing.seconds,
                distance_computations_per_query=counters.distance_computations
                / real_batch,
            )
        )
    return MethodCurve(method=method, points=points)


def run_cagra_sweep(
    index: CagraIndex,
    queries: np.ndarray,
    truth: np.ndarray,
    k: int,
    itopk_values: list[int],
    batch_size: int,
    base_config: SearchConfig | None = None,
    dtype_bytes: int = 0,
    gpu: GpuCostModel | None = None,
    method: str = "CAGRA",
) -> MethodCurve:
    """Recall–QPS curve for a CAGRA index over ``itopk`` values.

    ``batch_size`` is the *simulated* batch (e.g. 10 000); the real query
    set can be smaller — counters are scaled by the ratio.
    """
    gpu = gpu or GpuCostModel()
    base_config = base_config or SearchConfig()
    dtype_bytes = dtype_bytes or index.dataset.dtype.itemsize

    def config_for(itopk: int) -> SearchConfig:
        return base_config.with_overrides(itopk=max(itopk, k))

    def search(queries, k, itopk):
        result = index.search(
            queries, k, config=config_for(itopk), num_sms=gpu.spec.num_sms
        )
        return result.indices, result.distances, result.report

    def price(itopk, report, factor):
        config = config_for(itopk)
        report = scale_report(report, factor)
        # Re-resolve the algo for the simulated batch (Fig. 7 rule applies
        # to the batch actually launched, not the probe batch).
        report.algo = choose_algo(config, batch_size, num_sms=gpu.spec.num_sms)
        return gpu.search_time(
            report,
            index.dim,
            dtype_bytes=dtype_bytes,
            team_size=base_config.team_size,
            itopk=config.itopk,
            search_width=config.search_width,
        )

    return _run_sweep(method, search, queries, truth, k, itopk_values, batch_size, price)


def run_hnsw_sweep(
    hnsw,
    queries: np.ndarray,
    truth: np.ndarray,
    k: int,
    ef_values: list[int],
    batch_size: int,
    threads: int = 0,
    cpu: CpuCostModel | None = None,
    method: str = "HNSW",
) -> MethodCurve:
    """Recall–QPS curve for an HNSW index over ``ef`` values (the CPU
    beam sweep with ``ef`` as the beam width)."""

    def search(queries, k, ef):
        return hnsw.search(queries, k, ef=ef)

    return run_beam_sweep_cpu(
        method, search, queries, truth, k, ef_values, batch_size,
        dim=hnsw.data.shape[1], threads=threads, cpu=cpu,
    )


def run_beam_sweep_gpu(
    method: str,
    search_fn,
    queries: np.ndarray,
    truth: np.ndarray,
    k: int,
    beam_values: list[int],
    batch_size: int,
    dim: int,
    degree: int,
    dtype_bytes: int = 4,
    gpu: GpuCostModel | None = None,
) -> MethodCurve:
    """Curve for a GPU beam-search baseline (GGNN/GANNS).

    ``search_fn(queries, k, beam_width)`` must return
    ``(ids, dists, BeamCounters)``.  Kernels are priced with the fixed
    ``team_size=32``, device-memory hash, serialized priority queues and
    un-teamed (poorly coalesced) vector loads these baselines use.
    """
    gpu = gpu or GpuCostModel()

    def price(beam, counters, factor):
        return gpu.search_time(
            scale_report(beam_to_report(counters, degree, beam), factor),
            dim,
            dtype_bytes=dtype_bytes,
            team_size=32,
            itopk=beam,
            mem_efficiency=0.3,
        )

    return _run_sweep(method, search_fn, queries, truth, k, beam_values, batch_size, price)


def run_beam_sweep_cpu(
    method: str,
    search_fn,
    queries: np.ndarray,
    truth: np.ndarray,
    k: int,
    beam_values: list[int],
    batch_size: int,
    dim: int,
    threads: int = 0,
    cpu: CpuCostModel | None = None,
) -> MethodCurve:
    """Curve for a CPU beam-search baseline (NSSG under the HNSW-style
    multi-threaded bottom-layer searcher, as the Fig. 13 setup does)."""
    cpu = cpu or CpuCostModel()

    def price(_beam, counters, factor):
        return cpu.search_time(
            int(counters.distance_computations * factor),
            int(counters.hops * factor),
            dim,
            batch_size,
            threads=threads,
        )

    return _run_sweep(method, search_fn, queries, truth, k, beam_values, batch_size, price)
