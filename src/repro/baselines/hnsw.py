"""HNSW (Malkov & Yashunin, 2018) — the CPU state-of-the-art baseline.

A from-scratch implementation of Hierarchical Navigable Small World
graphs with the pieces the CAGRA paper contrasts itself against:

* exponentially-sampled layer assignment (``mL = 1/ln(M)``);
* greedy descent through the upper layers to find the entry point — the
  hierarchy CAGRA replaces with random sampling;
* ``ef``-bounded best-first search on each layer;
* the *heuristic* neighbor selection of Algorithm 4 (keep a candidate only
  if it is closer to the inserted point than to any already-kept
  neighbor), with ``M`` links per node on upper layers and ``2M`` on the
  base layer, shrinking overfull lists with the same heuristic.

Build and search record distance/hop counters compatible with
:class:`repro.gpusim.costmodel.CpuCostModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.beam import BeamCounters, batched_beam_search, beam_search
from repro.core.distances import distances_to_query, gathered_distances
from repro.core.graph import INDEX_MASK, occlusion_prune

__all__ = ["HnswBuildStats", "HnswIndex"]


@dataclass
class HnswBuildStats:
    """Construction work counters."""

    distance_computations: int = 0
    hops: int = 0
    max_level: int = 0
    level_sizes: list[int] = field(default_factory=list)


class HnswIndex:
    """Hierarchical Navigable Small World index.

    Args:
        data: ``(N, dim)`` dataset (vectors are referenced, not copied).
        m: links per node on layers > 0 (``M``); base layer keeps ``2M``.
        ef_construction: beam width during insertion.
        metric: distance metric.
        seed: RNG seed for level sampling.
    """

    def __init__(
        self,
        data: np.ndarray,
        m: int = 16,
        ef_construction: int = 100,
        metric: str = "sqeuclidean",
        seed: int = 0,
    ):
        if m < 2:
            raise ValueError("m must be >= 2")
        self.data = np.asarray(data)
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.metric = metric
        self._ml = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)
        self.entry_point: int = -1
        self.max_level: int = -1
        # layers[l] maps node -> np.ndarray of neighbor ids.
        self.layers: list[dict[int, np.ndarray]] = []
        self.build_stats = HnswBuildStats()
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "HnswIndex":
        """Insert every vector; returns self."""
        for node in range(self.data.shape[0]):
            self._insert(node)
        self.build_stats.max_level = self.max_level
        self.build_stats.level_sizes = [len(layer) for layer in self.layers]
        self._built = True
        return self

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)

    def _insert(self, node: int) -> None:
        level = self._random_level()
        while len(self.layers) <= level:
            self.layers.append({})
        if self.entry_point < 0:
            for l in range(level + 1):
                self.layers[l][node] = np.empty(0, dtype=np.int64)
            self.entry_point = node
            self.max_level = level
            return

        query = self.data[node]
        ep = self.entry_point
        stats = self.build_stats

        # Greedy descent through layers above the node's level.
        for l in range(self.max_level, level, -1):
            ep = self._greedy_closest(query, ep, l, stats)

        # ef-bounded search + heuristic linking on the node's layers.
        ef = self.ef_construction
        counters = BeamCounters()
        for l in range(min(level, self.max_level), -1, -1):
            layer = self.layers[l]
            ids, dists = beam_search(self.data, layer, query, ef, ef, [ep], self.metric, counters)
            found = ids != INDEX_MASK
            layer[node] = self._select([node], ids[found][None], dists[found][None], self.m)[0]
            # Reverse links; the neighbours they overfill shrink in one call.
            m_max = self.m0 if l == 0 else self.m
            full = [other for other in layer[node].tolist() if len(layer[other]) == m_max]
            layer.update((other, np.append(layer[other], node)) for other in layer[node].tolist())
            if full:
                rows = np.array([layer[other] for other in full])
                dists = gathered_distances(self.data, self.data[full], rows, self.metric)
                stats.distance_computations += rows.size
                layer.update(zip(full, self._select(full, rows, dists, m_max)))
            ep = int(ids[0])
        for l in range(min(level, self.max_level) + 1, level + 1):
            self.layers[l][node] = np.empty(0, dtype=np.int64)
        stats.distance_computations += counters.distance_computations
        stats.hops += counters.hops

        if level > self.max_level:
            self.max_level = level
            self.entry_point = node

    def _select(self, nodes, cand_ids, cand_dists, m: int) -> list[np.ndarray]:
        """Algorithm 4 per row: (distance, id) order, the RNG occlusion
        filter, then a nearest-first fill up to ``min(m, pool)``."""
        order = np.lexsort((cand_ids, cand_dists))
        cand_ids, cand_dists = (np.take_along_axis(a, order, 1) for a in (cand_ids, cand_dists))
        kept, charges = occlusion_prune(self.data, nodes, cand_ids, cand_dists, m, "rng",
                                        metric=self.metric)
        self.build_stats.distance_computations += int(charges.sum())
        pools = cand_ids.astype(np.int64)
        spare = (pools >= 0) & (pools[:, :, None] != kept[:, None, :]).all(axis=2)
        return [np.concatenate([row[row >= 0], pool[fill]])[:m]
                for row, pool, fill in zip(kept, pools, spare)]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _greedy_closest(
        self, query: np.ndarray, start: int, level: int, stats
    ) -> int:
        """Hill-climb to the locally closest node on one layer."""
        current = start
        current_dist = float(
            distances_to_query(self.data, query, np.array([start]), self.metric)[0]
        )
        stats.distance_computations += 1
        improved = True
        while improved:
            improved = False
            neighbors = self.layers[level].get(current)
            if neighbors is None or len(neighbors) == 0:
                break
            dists = distances_to_query(self.data, query, neighbors, self.metric)
            stats.distance_computations += len(neighbors)
            stats.hops += 1
            best = int(np.argmin(dists))
            if float(dists[best]) < current_dist:
                current = int(neighbors[best])
                current_dist = float(dists[best])
                improved = True
        return current

    def search(
        self, queries: np.ndarray, k: int, ef: int = 64
    ) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
        """Batched k-ANN search; ``ef`` is the recall/throughput knob.  The
        base layer is one engine call, entered where each query's greedy
        upper-layer descent ends."""
        if not self._built:
            raise RuntimeError("call build() before search()")
        queries = np.atleast_2d(queries)
        descent = BeamCounters()
        entries = np.full(len(queries), self.entry_point, dtype=np.int64)
        for l in range(self.max_level, 0, -1):  # upper layers, per query
            for i, query in enumerate(queries):
                entries[i] = self._greedy_closest(query, entries[i], l, descent)
        base = self.layers[0]
        ids, dists, counters = batched_beam_search(
            self.data, [base[node] for node in range(len(base))], queries, k,
            max(ef, k), entries[:, None], self.metric,
        )
        counters.merge_from(descent)
        return ids, dists, counters

    @property
    def base_degree_mean(self) -> float:
        """Average out-degree of the base layer (for degree alignment)."""
        sizes = [len(v) for v in self.layers[0].values()]
        return float(np.mean(sizes)) if sizes else 0.0
