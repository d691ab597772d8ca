"""Greedy best-first beam search over an adjacency structure.

This is the classic graph-ANNS search loop (NSG/NSSG/GGNN/GANNS/HNSW all
use a variant of it): keep a pool of the best ``L`` candidates found so
far, repeatedly expand the best unexpanded one, and stop when the pool's
top-L are all expanded.  It differs from the CAGRA loop in expanding
*one* parent at a time from an exact visited set rather than ``p``
parents — which is exactly the contrast the paper draws.  So it is the
traversal engine at ``itopk = L``, ``search_width = 1``
(:func:`batched_beam_search`), batched over queries or over the nodes a
builder inserts: every baseline search and build calls it.

Counters (:class:`BeamCounters`) record distance computations and hops so
the CPU/GPU cost models can price the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SearchConfig
from repro.core.graph import FixedDegreeGraph
from repro.core.traversal import TraversalEngine

__all__ = ["BeamCounters", "batched_beam_search"]


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


def batched_beam_search(
    data: np.ndarray,
    adjacency,
    queries: np.ndarray,
    k: int,
    beam_width: int,
    seeds: np.ndarray,
    metric: str = "sqeuclidean",
) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
    """Best-first beam search for every query, as one traversal-engine
    call: row ``i`` of the top-``k`` (ids, distances), ``(INDEX_MASK, inf)``
    past the nodes its seeds reach.

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

