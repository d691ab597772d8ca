"""NSSG (Fu et al., TPAMI 2022) — the graph whose pipeline CAGRA's most
resembles (Sec. V: both build an explicit k-NN graph first and both start
search from random samples).

Construction: starting from a k-NN graph, each node gathers a candidate
pool (its neighbors plus 2-hop expansion), then prunes it with the
*angular* criterion — a candidate is kept only if the angle it forms at
the node with every already-kept neighbor exceeds a threshold (60° in the
NSSG paper), which spreads edges in all directions like satellite orbits.
Reverse edges are added up to the degree bound, and a patch edge gives
every node left without an in-edge one.

Search: best-first beam from random seeds (:func:`nssg_search` also runs
on *any* adjacency array, which is how Fig. 12 evaluates a CAGRA graph
"converted to NSSG format" under the NSSG searcher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.beam import BeamCounters, batched_beam_search
from repro.core.distances import distances_to_query
from repro.core.graph import link_orphans, occlusion_prune
from repro.core.nn_descent import KnnGraphResult
from repro.core.rng_init import counter_draws, query_keys

__all__ = ["NssgBuildStats", "NssgIndex", "nssg_search"]


@dataclass
class NssgBuildStats:
    """Construction work counters."""

    distance_computations: int = 0
    pool_sizes_mean: float = 0.0
    patched_nodes: int = 0


class NssgIndex:
    """Navigating Satellite System Graph.

    Args:
        data: dataset.
        knn: initial k-NN graph (reused from NN-descent, as NSSG does).
        degree_bound: maximum out-degree ``R``.
        pool_size: candidate pool length ``L`` per node.
        angle_degrees: minimum pairwise edge angle (NSSG default 60°).
        metric: distance metric.
        seed: RNG seed for 2-hop sampling.
    """

    def __init__(
        self,
        data: np.ndarray,
        knn: KnnGraphResult,
        degree_bound: int = 32,
        pool_size: int = 100,
        angle_degrees: float = 60.0,
        metric: str = "sqeuclidean",
        seed: int = 0,
    ):
        self.data = np.asarray(data)
        self.knn = knn
        self.degree_bound = degree_bound
        self.pool_size = pool_size
        self.cos_threshold = math.cos(math.radians(angle_degrees))
        self.metric = metric
        self.seed = seed
        self.adjacency: list[np.ndarray] = []
        self.build_stats = NssgBuildStats()
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> "NssgIndex":
        """Prune every node's pool angularly, add reverse edges, patch."""
        rng = np.random.default_rng(self.seed)
        n = self.data.shape[0]
        neighbors = self.knn.graph.neighbors
        stats = self.build_stats

        pools = np.array([self._candidate_pool(node, neighbors, rng) for node in range(n)])
        stats.pool_sizes_mean = int((pools >= 0).sum()) / max(1, n)
        # Blocks of nodes whose float64 edge directions fit 4 MiB (in cache).
        block = max(1, (4 << 20) // (8 * self.data.shape[1] * max(1, self.pool_size)))
        kept: list[list[int]] = []
        for start in range(0, n, block):
            rows, charges = occlusion_prune(
                self.data, np.arange(start, min(n, start + block), dtype=np.int64),
                pools[start : start + block], None, self.degree_bound, "angle",
                cos_threshold=self.cos_threshold,
            )
            stats.distance_computations += int(charges.sum())
            kept += [row[row >= 0].tolist() for row in rows]

        # Reverse edges up to the degree bound.
        adjacency = [list(dict.fromkeys(row)) for row in kept]
        for src, row in enumerate(kept):
            for dst in row:
                if len(adjacency[dst]) < self.degree_bound and src not in adjacency[dst]:
                    adjacency[dst].append(src)

        # Patch unreachable nodes with an in-edge from their nearest kept
        # neighbour (NSSG's spanning-tree step, simplified).
        stats.patched_nodes = link_orphans(adjacency, self.degree_bound)
        self.adjacency = [np.array(row, dtype=np.int64) for row in adjacency]
        self._built = True
        return self

    def _candidate_pool(
        self, node: int, neighbors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Neighbors plus sampled 2-hop expansion, distance-sorted, the
        first L, padded with -1 to L."""
        one_hop = neighbors[node].astype(np.int64)
        two_hop = neighbors[one_hop].ravel().astype(np.int64)
        if len(two_hop) > self.pool_size:
            two_hop = rng.choice(two_hop, size=self.pool_size, replace=False)
        pool = np.unique(np.concatenate([one_hop, two_hop]))
        pool = pool[pool != node]
        dists = distances_to_query(self.data, self.data[node], pool, self.metric)
        self.build_stats.distance_computations += len(pool)
        order = np.argsort(dists, kind="stable")[: self.pool_size]
        return np.pad(pool[order], (0, self.pool_size - len(order)), constant_values=-1)

    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        beam_width: int = 64,
        num_seeds: int = 16,
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
        """Random-seeded beam search on the built graph."""
        if not self._built:
            raise RuntimeError("call build() before search()")
        return nssg_search(
            self.data,
            self.adjacency,
            queries,
            k,
            beam_width=beam_width,
            num_seeds=num_seeds,
            metric=self.metric,
            seed=seed,
        )

    @property
    def average_degree(self) -> float:
        return float(np.mean([len(row) for row in self.adjacency]))


def nssg_search(
    data: np.ndarray,
    adjacency,
    queries: np.ndarray,
    k: int,
    beam_width: int = 64,
    num_seeds: int = 16,
    metric: str = "sqeuclidean",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
    """NSSG's search procedure over any adjacency structure.

    This is the "NSSG search implementation" of Fig. 12: random seed
    sampling followed by best-first beam search.  ``adjacency`` may be a
    ``FixedDegreeGraph`` or ``(N, d)`` array (e.g. a CAGRA graph) or a list
    of id arrays (a native NSSG graph).  Query ``q``'s seeds are
    :func:`repro.core.rng_init.counter_draws` keyed on ``(seed, q's
    bytes)``, so its answer does not depend on the rest of the batch.
    """
    queries = np.atleast_2d(queries)
    draws = counter_draws(seed, query_keys(queries), 0, 0, num_seeds, len(adjacency))
    return batched_beam_search(data, adjacency, queries, k, beam_width, draws, metric)
