"""GGNN-like GPU baseline (Groh et al., IEEE Big Data 2022).

GGNN builds its graph hierarchically: the dataset is split into small
shards whose exact k-NN graphs are cheap to build in parallel on the GPU,
then shards are merged bottom-up, refining every node's neighbor list by
searching the merged graph.  Search is a per-query best-first traversal
(one query per thread block, fixed-degree graph, device-memory visited
set) without CAGRA's team splitting, forgettable hashing or buffer-based
top-M maintenance — precisely the gap the paper measures in Figs. 11/13.

This implementation keeps that structure: exact intra-shard graphs, a
beam-search refinement pass per node over the merged graph, fixed degree,
and operation counters that the GPU cost model prices with ``team_size=32``
and a device-memory hash (see :mod:`repro.bench.harness`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.beam import BeamCounters, batched_beam_search
from repro.core.distances import gathered_distances, pairwise_distances
from repro.core.graph import INDEX_MASK, FixedDegreeGraph, link_orphans

__all__ = ["GgnnBuildStats", "GgnnIndex"]


@dataclass
class GgnnBuildStats:
    """Construction work counters."""

    distance_computations: int = 0
    hops: int = 0
    num_shards: int = 0


class GgnnIndex:
    """GGNN-like index: sharded exact graphs + search-based merge refinement.

    Args:
        data: dataset.
        degree: fixed out-degree of the final graph (``KBuild`` in GGNN).
        shard_size: points per leaf shard (exact graphs inside).
        refine_beam: beam width of the merge-refinement searches.
        refine_rounds: merge-refinement passes (GGNN's hierarchy depth
            analogue; each pass searches the previous pass's graph).
        metric: distance metric.
        seed: shard shuffling seed.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 24,
        shard_size: int = 512,
        refine_beam: int = 32,
        refine_rounds: int = 2,
        metric: str = "sqeuclidean",
        seed: int = 0,
    ):
        self.data = np.asarray(data)
        self.degree = min(degree, self.data.shape[0] - 1)
        self.shard_size = max(shard_size, self.degree + 1)
        self.refine_beam = max(refine_beam, self.degree)
        self.refine_rounds = max(1, refine_rounds)
        self.metric = metric
        self.seed = seed
        self.graph: FixedDegreeGraph | None = None
        self.build_stats = GgnnBuildStats()

    def build(self) -> "GgnnIndex":
        """Shard → exact intra-shard graphs → beam-refine over the union."""
        n = self.data.shape[0]
        rng = np.random.default_rng(self.seed)
        permutation = rng.permutation(n)
        stats = self.build_stats
        neighbors = np.zeros((n, self.degree), dtype=np.int64)

        # Stage 1: exact k-NN graphs inside each shard.  A trailing shard
        # too small for a degree-``degree`` graph joins the one before.
        shards = [
            permutation[start : start + self.shard_size]
            for start in range(0, n, self.shard_size)
        ]
        if len(shards) > 1 and len(shards[-1]) <= self.degree:
            shards[-2:] = [np.concatenate(shards[-2:])]
        stats.num_shards = len(shards)
        for shard in shards:
            d = pairwise_distances(self.data[shard], self.data[shard], self.metric)
            stats.distance_computations += len(shard) * len(shard)
            np.fill_diagonal(d, np.inf)
            part = np.argpartition(d, self.degree - 1, axis=1)[:, : self.degree]
            part_d = np.take_along_axis(d, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            neighbors[shard] = shard[np.take_along_axis(part, order, axis=1)]

        # Stage 2a: cross-shard linking — every node searches the stitched
        # graph from its first 4 neighbours and 8 random ids, all in one
        # batch, and keeps the nearest of its row and what it found (this
        # is what first connects the shards).
        seeds = np.concatenate([neighbors[:, :4], rng.integers(0, n, size=(n, 8))], axis=1)
        found, _, counters = batched_beam_search(
            self.data, FixedDegreeGraph(neighbors), self.data,
            min(self.refine_beam, n - 1), self.refine_beam, seeds, self.metric,
        )
        stats.distance_computations += counters.distance_computations
        stats.hops += counters.hops
        nodes = np.arange(n, dtype=np.int64)
        found = np.where(found == INDEX_MASK, nodes[:, None], found.astype(np.int64))
        neighbors = self._keep_nearest(nodes, np.concatenate([neighbors, found], axis=1), stats)

        # Stage 2b: neighborhood-propagation sweeps (GGNN's bottom-up
        # merges net out to this): each node re-ranks its 2-hop pool and
        # keeps the nearest ``degree``, batched over blocks.
        for _ in range(self.refine_rounds):
            neighbors = self._two_hop_sweep(neighbors, stats)

        # Reverse-edge pass (GGNN symmetrizes during its merge step): each
        # node's nearest neighbour links back, then any node left without
        # an in-edge gets one, so none is unreachable.
        link_orphans(neighbors, self.degree, links=zip(neighbors[:, 0].tolist(), range(n)))

        # Top of the hierarchy: a coarse random subset used as search entry
        # points (GGNN descends its layer hierarchy to seed the base-layer
        # traversal; a nearest-of-coarse-sample scan is that descent's
        # net effect).
        coarse_size = min(n, max(32, 4 * int(np.sqrt(n))))
        self.coarse_ids = rng.choice(n, size=coarse_size, replace=False).astype(np.int64)

        self.graph = FixedDegreeGraph(neighbors.astype(np.uint32))
        return self

    def _two_hop_sweep(
        self, neighbors: np.ndarray, stats: GgnnBuildStats, block: int = 512
    ) -> np.ndarray:
        """One vectorized refinement sweep: each node keeps the nearest
        ``degree`` nodes of its (self ∪ 1-hop ∪ 2-hop) pool."""
        n = neighbors.shape[0]
        out = neighbors.copy()
        for start in range(0, n, block):
            stop = min(start + block, n)
            pool = np.concatenate(
                [neighbors[start:stop], neighbors[neighbors[start:stop]].reshape(stop - start, -1)],
                axis=1,
            )
            out[start:stop] = self._keep_nearest(np.arange(start, stop), pool, stats)
        return out

    def _keep_nearest(
        self, nodes: np.ndarray, pool: np.ndarray, stats: GgnnBuildStats
    ) -> np.ndarray:
        """Row ``i`` keeps the nearest ``degree`` distinct ids of
        ``pool[i]``, whose first id is a neighbour of ``nodes[i]`` and
        stands in for any copy of the node itself."""
        self_mask = pool == nodes[:, None]
        pool[self_mask] = np.broadcast_to(pool[:, :1], pool.shape)[self_mask]
        dists = gathered_distances(self.data, self.data[nodes], pool, self.metric)
        stats.distance_computations += pool.size
        # Deduplicate ids per row: worse copies get +inf.
        order = np.lexsort((dists, pool), axis=1)
        sorted_pool = np.take_along_axis(pool, order, axis=1)
        sorted_dists = np.take_along_axis(dists, order, axis=1)
        dup = np.zeros_like(sorted_dists, dtype=bool)
        dup[:, 1:] = sorted_pool[:, 1:] == sorted_pool[:, :-1]
        sorted_dists[dup] = np.inf
        keep = np.argsort(sorted_dists, axis=1, kind="stable")[:, : self.degree]
        return np.take_along_axis(sorted_pool, keep, axis=1)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        beam_width: int = 64,
        num_seeds: int = 8,
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
        """Beam search seeded by the coarse hierarchy layer (GGNN maps one
        query to one thread block; the batch runs in lockstep)."""
        if self.graph is None:
            raise RuntimeError("call build() before search()")
        queries = np.atleast_2d(queries)
        # Hierarchy descent: nearest coarse-layer nodes seed the base layer.
        coarse_d = pairwise_distances(queries, self.data[self.coarse_ids], self.metric)
        seed_pick = np.argsort(coarse_d, axis=1, kind="stable")[:, :num_seeds]
        ids, dists, counters = batched_beam_search(
            self.data, self.graph, queries, k, beam_width,
            self.coarse_ids[seed_pick], self.metric,
        )
        counters.distance_computations += coarse_d.size
        return ids, dists, counters
