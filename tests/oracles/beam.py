"""The scalar beam search and HNSW's greedy hill-climb, as they ran before
HNSW insertion, GGNN's linking and HNSW's upper-layer descent moved onto
the traversal engine (``repro.baselines.beam.batched_beam_search``).

Kept verbatim (``self`` fields became arguments) as the oracles for the
engine: ``tests/test_properties.py`` holds the batch search equal to
:func:`beam_search` row by row (ids, distance bits, counters) and the
engine's beam-1 descent equal to :func:`greedy_closest`'s entry points.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.beam import BeamCounters
from repro.core.distances import distances_to_query
from repro.core.graph import INDEX_MASK


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


def greedy_closest(
    data: np.ndarray, layer: dict, query: np.ndarray, start: int, metric: str, stats
) -> int:
    """Hill-climb to the locally closest node on one layer."""
    current = start
    current_dist = float(
        distances_to_query(data, query, np.array([start]), metric)[0]
    )
    stats.distance_computations += 1
    improved = True
    while improved:
        improved = False
        neighbors = layer.get(current)
        if neighbors is None or len(neighbors) == 0:
            break
        dists = distances_to_query(data, query, neighbors, metric)
        stats.distance_computations += len(neighbors)
        stats.hops += 1
        best = int(np.argmin(dists))
        if float(dists[best]) < current_dist:
            current = int(neighbors[best])
            current_dist = float(dists[best])
            improved = True
    return current
