"""Per-shard build and search tasks for :class:`ShardExecutor`.

The unit of parallelism mirrors the paper's multi-GPU story (Sec. IV-C2 /
V-E): one *shard* — an independent CAGRA sub-index — per worker, exactly
GGNN's independent-shard construction trick.  This module turns the two
shard operations into pool-friendly pure functions:

* :func:`build_shards` — one NN-descent + graph-optimization build per
  shard; the (potentially huge) dataset crosses the process boundary via
  :mod:`repro.parallel.sharedmem`, each worker slices its shard's rows,
  and only the small ``(n_s, d)`` adjacency array is pickled back;
* :func:`search_shards` — one full CAGRA search per shard; with the
  process backend, shard datasets and graphs are mapped from a
  :class:`SharedIndexHandle` the owner keeps alive across calls, so a
  serving layer pays the copy once per index generation, not per query.

Results are bitwise identical to running the same loop serially: every
task derives its randomness from explicit seeds in its payload
(``GraphBuildConfig.seed + shard`` for builds, counter draws keyed on
``(seed, query bytes)`` for searches — :mod:`repro.core.rng_init`),
never from worker identity, scheduling order, or time.

Both task bodies are instrumented with :mod:`repro.resilience.faults`
injection points (``shard.build`` / ``shard.search``), carried in the
payload as a JSON plan so the same faults fire on every backend and
start method; a ``corrupt`` fault poisons the search result in place
(sentinel ids, NaN distances) to exercise the merge layer's sentinel
masking.  With no plan configured the hook is a single ``None`` check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.traversal import search_batch_fast
from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.distances import as_storage_dtype
from repro.core.graph import INDEX_MASK, FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.search import SearchResult, search_batch
from repro.parallel.executor import ShardExecutor, TaskOutcome
from repro.parallel.sharedmem import ArraySpec, SharedArray, attach_array
from repro.resilience import FaultInjector, FaultPlan

__all__ = [
    "ShardPlan",
    "SharedIndexHandle",
    "build_shards",
    "plan_shards",
    "search_shards",
]


@dataclass(frozen=True)
class ShardPlan:
    """One shard's slice of the dataset and its build configuration."""

    ids: np.ndarray  # int64 global row ids owned by this shard
    config: GraphBuildConfig


def plan_shards(
    num_rows: int, num_shards: int, config: GraphBuildConfig
) -> list[ShardPlan]:
    """Round-robin split plus per-shard build configs.

    Each shard's degree is capped by its population and its seed is
    offset by the shard number, so shard ``s`` builds identically no
    matter which worker (or process) runs it.
    """
    plans = []
    for s in range(num_shards):
        ids = np.arange(s, num_rows, num_shards, dtype=np.int64)
        # Shard degree cannot exceed the shard population.
        degree = min(config.graph_degree, max(2, (len(ids) - 1) // 2 * 2))
        shard_config = GraphBuildConfig(
            graph_degree=degree,
            intermediate_degree=0,
            reordering=config.reordering,
            add_reverse_edges=config.add_reverse_edges,
            nn_descent_iterations=config.nn_descent_iterations,
            nn_descent_sample_rate=config.nn_descent_sample_rate,
            nn_descent_termination_delta=config.nn_descent_termination_delta,
            metric=config.metric,
            seed=config.seed + s,
        )
        plans.append(ShardPlan(ids=ids, config=shard_config))
    return plans


def _task_injector(fault_json: str | None) -> FaultInjector | None:
    """Rebuild the fault injector inside the executing worker (if any)."""
    if not fault_json:
        return None
    return FaultInjector.from_json(fault_json)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def _build_shard_task(payload):
    """Worker body: build one shard, return (neighbors, report, seconds).

    ``source`` is either the dataset itself (serial/thread backends) or
    an :class:`ArraySpec` naming the shared segment (process backend).
    """
    source, ids, config, dataset_dtype, shard_no, fault_json = payload
    injector = _task_injector(fault_json)
    if injector is not None:
        # ``corrupt`` is search-only; build faults fail loudly or stall.
        injector.fire("shard.build", shard=shard_no, op="build")
    data = attach_array(source) if isinstance(source, ArraySpec) else source
    started = time.perf_counter()
    index = CagraIndex.build(data[ids], config, dataset_dtype=dataset_dtype)
    seconds = time.perf_counter() - started
    return index.graph.neighbors, index.build_report, seconds


def build_shards(
    dataset: np.ndarray,
    plans: list[ShardPlan],
    dataset_dtype: str,
    executor: ShardExecutor,
    fault: FaultPlan | None = None,
) -> list[CagraIndex]:
    """Build every planned shard on ``executor``; shards in plan order.

    Builds are all-or-nothing: a shard whose build fails on every retry
    re-raises (a partially built sharded index has no useful meaning),
    unlike searches, which support degraded merges via
    :func:`search_shards` outcomes.
    """
    dataset = np.asarray(dataset)
    share = None
    source = dataset
    if executor.backend == "process":
        share = SharedArray.create(dataset)
        source = share.spec
    fault_json = fault.to_json() if fault is not None else None
    payloads = [
        (source, plan.ids, plan.config, dataset_dtype, s, fault_json)
        for s, plan in enumerate(plans)
    ]
    try:
        outputs = executor.map(_build_shard_task, payloads)
    finally:
        if share is not None:
            share.close()
    shards = []
    for plan, (neighbors, report, _seconds) in zip(plans, outputs):
        # Reconstruct the shard around the parent's own dataset slice —
        # only the adjacency crossed the process boundary.
        stored = as_storage_dtype(dataset[plan.ids], dataset_dtype)
        shards.append(
            CagraIndex(
                stored,
                FixedDegreeGraph(neighbors),
                metric=plan.config.metric,
                build_config=plan.config,
                build_report=report,
            )
        )
    return shards


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
class SharedIndexHandle:
    """Shared-memory projection of a sharded index's arrays.

    Owning code (typically :class:`~repro.core.sharding.ShardedCagraIndex`)
    creates this once, reuses it across every process-backend search, and
    closes it when the index is dropped — workers attach each segment a
    single time and serve all subsequent searches from the same mapping.
    """

    def __init__(self, shards: list[CagraIndex]):
        self._arrays: list[SharedArray] = []
        self.shard_specs: list[tuple[ArraySpec, ArraySpec, str]] = []
        for shard in shards:
            data = SharedArray.create(shard.dataset)
            graph = SharedArray.create(shard.graph.neighbors)
            self._arrays.extend([data, graph])
            self.shard_specs.append((data.spec, graph.spec, shard.metric))

    def close(self) -> None:
        for array in self._arrays:
            array.close()
        self._arrays = []
        self.shard_specs = []


def _corrupt_result(result: SearchResult) -> SearchResult:
    """Apply a ``corrupt`` fault: sentinel ids + NaN distances.

    This is exactly the poison the merge layer's sentinel masking must
    absorb (see ``ShardedCagraIndex._merge``): half the slots become
    unfilled sentinels, every distance goes non-finite.
    """
    indices = result.indices.copy()
    distances = result.distances.copy()
    indices[:, : max(1, indices.shape[1] // 2)] = np.uint32(INDEX_MASK)
    distances[:] = np.nan
    return SearchResult(indices=indices, distances=distances, report=result.report)


def _run_search(data, graph, metric, queries, k, config, num_sms, fast, filter_mask):
    started = time.perf_counter()
    if fast:
        result = search_batch_fast(
            data, graph, queries, k, config=config, metric=metric,
            filter_mask=filter_mask,
        )
    else:
        result = search_batch(
            data, graph, queries, k, config=config, metric=metric,
            num_sms=num_sms, filter_mask=filter_mask,
        )
    return result, time.perf_counter() - started


def _search_shard_local(payload) -> tuple[SearchResult, float]:
    """Worker body for serial/thread backends (shared address space)."""
    shard, queries, k, config, num_sms, fast, filter_mask, shard_no, \
        fault_json = payload
    injector = _task_injector(fault_json)
    spec = None
    if injector is not None:
        spec = injector.fire("shard.search", shard=shard_no, op="search")
    result, seconds = _run_search(
        shard.dataset, shard.graph, shard.metric,
        queries, k, config, num_sms, fast, filter_mask,
    )
    if spec is not None and spec.kind == "corrupt":
        result = _corrupt_result(result)
    return result, seconds


def _search_shard_shm(payload) -> tuple[SearchResult, float]:
    """Worker body for the process backend (attach shared segments)."""
    (data_spec, graph_spec, metric), queries, k, config, num_sms, fast, \
        filter_mask, shard_no, fault_json = payload
    injector = _task_injector(fault_json)
    spec = None
    if injector is not None:
        spec = injector.fire("shard.search", shard=shard_no, op="search")
    data = attach_array(data_spec)
    graph = FixedDegreeGraph(attach_array(graph_spec))
    result, seconds = _run_search(
        data, graph, metric, queries, k, config, num_sms, fast, filter_mask
    )
    if spec is not None and spec.kind == "corrupt":
        result = _corrupt_result(result)
    return result, seconds


def search_shards(
    shards: list[CagraIndex],
    queries: np.ndarray,
    k: int,
    config: SearchConfig | None,
    num_sms: int,
    executor: ShardExecutor,
    fast: bool = False,
    filter_masks: list[np.ndarray | None] | None = None,
    handle: SharedIndexHandle | None = None,
    fault: FaultPlan | None = None,
    shard_ids: list[int] | None = None,
) -> list[TaskOutcome]:
    """Search every shard on ``executor``; one :class:`TaskOutcome` each.

    A successful outcome's ``value`` is ``(SearchResult, seconds)``; a
    failed outcome (retries exhausted, worker dead, watchdog fired)
    carries the error instead of raising, so the caller decides between
    all-or-nothing and degraded-merge semantics.

    ``filter_masks`` carries one per-shard (local-id) mask or ``None``
    each.  ``shard_ids`` names each entry's global shard number (for
    fault matching) when ``shards`` is a subset; defaults to positional.
    With the process backend, pass a live :class:`SharedIndexHandle` to
    reuse its segments; otherwise a temporary one is created for the
    call.
    """
    if filter_masks is None:
        filter_masks = [None] * len(shards)
    if shard_ids is None:
        shard_ids = list(range(len(shards)))
    fault_json = fault.to_json() if fault is not None else None
    if executor.backend == "process":
        own_handle = handle is None
        if own_handle:
            handle = SharedIndexHandle(shards)
        # A caller-provided handle spans the *whole* index (specs indexed
        # by global shard id); a handle built here spans only the subset.
        spec_of = (lambda s: handle.shard_specs[s]) if own_handle else (
            lambda s: handle.shard_specs[shard_ids[s]]
        )
        payloads = [
            (spec_of(s), queries, k, config, num_sms, fast,
             filter_masks[s], shard_ids[s], fault_json)
            for s in range(len(shards))
        ]
        try:
            return executor.map_outcomes(_search_shard_shm, payloads)
        finally:
            if own_handle:
                handle.close()
    payloads = [
        (shard, queries, k, config, num_sms, fast, filter_masks[s],
         shard_ids[s], fault_json)
        for s, shard in enumerate(shards)
    ]
    return executor.map_outcomes(_search_shard_local, payloads)
