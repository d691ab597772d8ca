"""Greedy best-first beam search over an adjacency structure.

This is the classic graph-ANNS search loop (NSG/NSSG/GGNN/GANNS/HNSW all
use a variant of it): keep a pool of the best ``L`` candidates found so
far, repeatedly expand the best unexpanded one, and stop when the pool's
top-L are all expanded.  It differs from the CAGRA loop in expanding
*one* parent at a time from an exact visited set rather than ``p``
parents — which is exactly the contrast the paper draws.  So a batch
search is the traversal engine at ``itopk = L``, ``search_width = 1``
(:func:`batched_beam_search`); the scalar :func:`beam_search` serves the
builders that are sequential by construction, HNSW's and GGNN's.

Counters (:class:`BeamCounters`) record distance computations and hops so
the CPU/GPU cost models can price the search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.config import SearchConfig
from repro.core.distances import distances_to_query
from repro.core.graph import INDEX_MASK, FixedDegreeGraph
from repro.core.traversal import TraversalEngine

__all__ = ["BeamCounters", "batched_beam_search", "beam_search"]


@dataclass
class BeamCounters:
    """Work counters for beam searches (batch-accumulated)."""

    distance_computations: int = 0
    hops: int = 0
    queries: int = 0

    def merge_from(self, other: "BeamCounters") -> None:
        self.distance_computations += other.distance_computations
        self.hops += other.hops
        self.queries += other.queries


def beam_search(
    data: np.ndarray,
    neighbor_lists,
    query: np.ndarray,
    k: int,
    beam_width: int,
    seeds: np.ndarray,
    metric: str = "sqeuclidean",
    counters: BeamCounters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-first search returning the top-k (ids, distances).

    Args:
        data: ``(N, dim)`` dataset.
        neighbor_lists: indexable giving each node's neighbor id array —
            a ``(N, d)`` array, a list of arrays, or any ``[]``-able.
        query: one query vector.
        k: results to return (``<= beam_width``); slots beyond the nodes
            reachable from ``seeds`` come back as ``(INDEX_MASK, inf)``.
        beam_width: pool size ``L`` — the recall/throughput knob.
        seeds: entry-point node ids.
        counters: accumulates work across calls when provided.
    """
    if k > beam_width:
        raise ValueError(f"k={k} exceeds beam_width={beam_width}")
    counters = counters if counters is not None else BeamCounters()
    counters.queries += 1

    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    seed_dists = distances_to_query(data, query, seeds, metric=metric)
    counters.distance_computations += len(seeds)

    visited = set(int(s) for s in seeds)
    # Min-heap of unexpanded candidates; pool holds the best L found.
    frontier = [(float(d), int(s)) for d, s in zip(seed_dists, seeds)]
    heapq.heapify(frontier)
    pool: list[tuple[float, int]] = sorted(frontier)[:beam_width]
    worst = pool[-1][0] if len(pool) >= beam_width else np.inf

    hops = 0
    while frontier:
        dist, node = heapq.heappop(frontier)
        if dist > worst and len(pool) >= beam_width:
            break  # best unexpanded is outside the pool: converged
        hops += 1
        # A repeated neighbour is a non-first visit: scored once at most.
        neighbors = dict.fromkeys(np.asarray(neighbor_lists[node]).tolist())
        fresh = np.array([n for n in neighbors if n not in visited], dtype=np.int64)
        if len(fresh) == 0:
            continue
        visited.update(int(n) for n in fresh)
        dists = distances_to_query(data, query, fresh, metric=metric)
        counters.distance_computations += len(fresh)
        for d, n in zip(dists, fresh):
            d = float(d)
            if len(pool) < beam_width or d < worst:
                pool.append((d, int(n)))
                pool.sort()
                del pool[beam_width:]
                worst = pool[-1][0] if len(pool) >= beam_width else np.inf
                heapq.heappush(frontier, (d, int(n)))
    counters.hops += hops

    top = pool[:k]
    ids = np.array([n for _, n in top], dtype=np.uint32)
    dists_out = np.array([d for d, _ in top], dtype=np.float64)
    if len(ids) < k:  # fewer than k nodes reachable from the seeds
        pad = k - len(ids)
        ids = np.concatenate([ids, np.full(pad, INDEX_MASK, dtype=np.uint32)])
        dists_out = np.concatenate([dists_out, np.full(pad, np.inf)])
    return ids, dists_out


def batched_beam_search(
    data: np.ndarray,
    adjacency,
    queries: np.ndarray,
    k: int,
    beam_width: int,
    seeds: np.ndarray,
    metric: str = "sqeuclidean",
) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
    """:func:`beam_search` row by row, as one traversal-engine call.

    Row ``i`` of ``seeds`` holds query ``i``'s entry points.  Ragged rows
    of ``adjacency`` are padded with the node's own id, gathered only when
    that (visited) node expands: a non-first visit, never scored or charged.
    """
    if k > beam_width:
        raise ValueError(f"k={k} exceeds beam_width={beam_width}")
    if not isinstance(adjacency, FixedDegreeGraph):
        rows = [np.asarray(row, dtype=np.int64) for row in adjacency]
        lengths = np.array([len(row) for row in rows], dtype=np.int64)
        neighbors = np.repeat(np.arange(len(rows))[:, None], max(1, lengths.max()), axis=1)
        neighbors[np.arange(neighbors.shape[1]) < lengths[:, None]] = np.concatenate(rows)
        adjacency = FixedDegreeGraph(neighbors)
    config = SearchConfig(
        itopk=beam_width, search_width=1, max_iterations=adjacency.num_nodes + 1
    )
    result = TraversalEngine(data, adjacency, metric=metric).search(
        queries, k, config=config, mode="fast", seeds=seeds
    )
    counters = BeamCounters(
        distance_computations=result.report.distance_computations,
        hops=result.report.candidate_gathers // adjacency.degree,
        queries=len(result.indices),
    )
    return result.indices, result.distances, counters

