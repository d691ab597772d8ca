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
from repro.core.distances import distances_to_query
from repro.core.graph import INDEX_MASK

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
            ids, dists = beam_search(
                self.data, self.layers[l], query, ef, ef, [ep], self.metric, counters
            )
            found = ids != INDEX_MASK
            pool = list(zip(dists[found].tolist(), ids[found].tolist()))
            m_here = self.m0 if l == 0 else self.m
            chosen = self._select_heuristic(query, pool, self.m, stats)
            self.layers[l][node] = np.array([c for _, c in chosen], dtype=np.int64)
            for dist, other in chosen:
                self._link(other, node, dist, m_here, l, stats)
            ep = pool[0][1]
        for l in range(min(level, self.max_level) + 1, level + 1):
            self.layers[l][node] = np.empty(0, dtype=np.int64)
        stats.distance_computations += counters.distance_computations
        stats.hops += counters.hops

        if level > self.max_level:
            self.max_level = level
            self.entry_point = node

    def _link(
        self, node: int, new_neighbor: int, dist: float, m_max: int, level: int,
        stats: HnswBuildStats,
    ) -> None:
        """Add ``new_neighbor`` to ``node``'s list, shrinking heuristically."""
        current = self.layers[level].get(node)
        if current is None:
            self.layers[level][node] = np.array([new_neighbor], dtype=np.int64)
            return
        if len(current) < m_max:
            self.layers[level][node] = np.append(current, new_neighbor)
            return
        cand_ids = np.append(current, new_neighbor)
        dists = distances_to_query(self.data, self.data[node], cand_ids, self.metric)
        stats.distance_computations += len(cand_ids)
        pool = sorted(zip(dists.tolist(), cand_ids.tolist()))
        chosen = self._select_heuristic(self.data[node], pool, m_max, stats)
        self.layers[level][node] = np.array([c for _, c in chosen], dtype=np.int64)

    def _select_heuristic(
        self,
        query: np.ndarray,
        pool: list[tuple[float, int]],
        m: int,
        stats: HnswBuildStats | None,
    ) -> list[tuple[float, int]]:
        """Algorithm 4: keep a candidate only if it is closer to the query
        than to every already-kept neighbor (edge diversity)."""
        chosen: list[tuple[float, int]] = []
        for dist, cand in sorted(pool):
            if len(chosen) >= m:
                break
            keep = True
            if chosen:
                kept_ids = np.array([c for _, c in chosen], dtype=np.int64)
                to_kept = distances_to_query(
                    self.data, self.data[cand], kept_ids, self.metric
                )
                if stats is not None:
                    stats.distance_computations += len(kept_ids)
                keep = bool(np.all(to_kept >= dist))
            if keep:
                chosen.append((dist, cand))
        # Fall back to nearest-first if the heuristic was too aggressive.
        if len(chosen) < min(m, len(pool)):
            have = {c for _, c in chosen}
            for dist, cand in sorted(pool):
                if len(chosen) >= m:
                    break
                if cand not in have:
                    chosen.append((dist, cand))
                    have.add(cand)
        return chosen

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
