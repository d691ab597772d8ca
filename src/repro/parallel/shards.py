"""Per-shard build and search tasks for :class:`ShardExecutor`.

The unit of parallelism mirrors the paper's multi-GPU story (Sec. IV-C2 /
V-E): one *shard* — an independent CAGRA sub-index — per worker, exactly
GGNN's independent-shard construction trick.  Each operation has one task
body, shared by the serial, thread and process backends; the data it
reads is the executor's ``state``, which a process worker receives once,
when it starts (see :mod:`repro.parallel.executor`):

* :func:`build_shards` — the state is the dataset; each task slices its
  shard's rows, runs one NN-descent + graph-optimization build, and
  returns only the small ``(n_s, d)`` adjacency array;
* :func:`search_shards` — the state is the index's shard list; each task
  searches one shard on that shard's own cached
  :meth:`~repro.core.index.CagraIndex.engine`, so a serving layer pays
  the per-shard setup (the fp16 conversion) once per worker, not per
  query.

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

from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.distances import as_storage_dtype
from repro.core.graph import INDEX_MASK, FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.search import SearchResult
from repro.parallel.config import ParallelConfig
from repro.parallel.executor import ShardExecutor, TaskOutcome
from repro.resilience import FaultInjector, FaultPlan, resolve_fault_plan

__all__ = [
    "ShardPlan",
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
def _build_shard(dataset, payload):
    """Task body: build one shard, return ``(neighbors, report)``."""
    ids, config, dataset_dtype, shard_no, fault_json = payload
    injector = _task_injector(fault_json)
    if injector is not None:
        # ``corrupt`` is search-only; build faults fail loudly or stall.
        injector.fire("shard.build", shard=shard_no, op="build")
    index = CagraIndex.build(dataset[ids], config, dataset_dtype=dataset_dtype)
    return index.graph.neighbors, index.build_report


def build_shards(
    dataset: np.ndarray,
    plans: list[ShardPlan],
    dataset_dtype: str,
    parallel: ParallelConfig,
) -> list[CagraIndex]:
    """Build every planned shard on a ``parallel`` pool; shards in plan order.

    Builds are all-or-nothing: a shard whose build fails on every retry
    re-raises (a partially built sharded index has no useful meaning),
    unlike searches, which support degraded merges via
    :func:`search_shards` outcomes.
    """
    dataset = np.asarray(dataset)
    fault = resolve_fault_plan(parallel.fault_plan)
    fault_json = fault.to_json() if fault is not None else None
    payloads = [
        (plan.ids, plan.config, dataset_dtype, s, fault_json)
        for s, plan in enumerate(plans)
    ]
    with ShardExecutor.from_config(parallel, len(plans), state=dataset) as executor:
        outputs = executor.map(_build_shard, payloads)
    # Each shard wraps the parent's own dataset slice — only the
    # adjacency crosses a process boundary.
    return [
        CagraIndex(
            as_storage_dtype(dataset[plan.ids], dataset_dtype),
            FixedDegreeGraph(neighbors),
            metric=plan.config.metric,
            build_config=plan.config,
            build_report=report,
        )
        for plan, (neighbors, report) in zip(plans, outputs)
    ]


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
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


def _search_shard(shards, payload) -> tuple[SearchResult, float]:
    """Task body: search ``shards[s]``, return ``(result, seconds)``."""
    s, queries, k, config, num_sms, fast, filter_mask, fault_json = payload
    injector = _task_injector(fault_json)
    spec = None
    if injector is not None:
        spec = injector.fire("shard.search", shard=s, op="search")
    shard = shards[s]
    started = time.perf_counter()
    if fast:
        result = shard.search_fast(queries, k, config=config, filter_mask=filter_mask)
    else:
        result = shard.search(
            queries, k, config=config, num_sms=num_sms, filter_mask=filter_mask
        )
    seconds = time.perf_counter() - started
    if spec is not None and spec.kind == "corrupt":
        result = _corrupt_result(result)
    return result, seconds


def search_shards(
    executor: ShardExecutor,
    shard_ids: list[int],
    queries: np.ndarray,
    k: int,
    config: SearchConfig | None,
    num_sms: int,
    fast: bool,
    filter_masks: list[np.ndarray | None],
    fault: FaultPlan | None = None,
) -> list[TaskOutcome]:
    """Search shards ``shard_ids`` of ``executor.state`` (the shard list).

    Returns one :class:`TaskOutcome` per entry of ``shard_ids``.  A
    successful outcome's ``value`` is ``(SearchResult, seconds)``; a
    failed outcome (retries exhausted, worker dead, watchdog fired)
    carries the error instead of raising, so the caller decides between
    all-or-nothing and degraded-merge semantics.  ``filter_masks`` holds
    one per-shard (local-id) mask or ``None`` per entry.
    """
    fault_json = fault.to_json() if fault is not None else None
    payloads = [
        (s, queries, k, config, num_sms, fast, mask, fault_json)
        for s, mask in zip(shard_ids, filter_masks)
    ]
    return executor.map_outcomes(_search_shard, payloads)
