"""HNSW (Malkov & Yashunin, 2018) — the CPU state-of-the-art baseline.

A from-scratch implementation of Hierarchical Navigable Small World
graphs with the pieces the CAGRA paper contrasts itself against:

* exponentially-sampled layer assignment (``mL = 1/ln(M)``);
* greedy descent through the upper layers to find the entry point — the
  hierarchy CAGRA replaces with random sampling;
* ``ef``-bounded best-first search on each layer;
* insertion in batches against the graph as it stood before each batch,
  the shape of hnswlib's multi-threaded build that Fig. 11 times;
* the *heuristic* neighbor selection of Algorithm 4 (keep a candidate only
  if it is closer to the inserted point than to any already-kept
  neighbor), with ``M`` links per node on upper layers and ``2M`` on the
  base layer, shrinking overfull lists with the same heuristic (and
  :func:`repro.core.graph.link_orphans` giving back any base-layer
  node's last in-edge a shrink took).

Build and search record distance/hop counters compatible with
:class:`repro.gpusim.costmodel.CpuCostModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.beam import BeamCounters, batched_beam_search
from repro.core.distances import gathered_distances
from repro.core.graph import INDEX_MASK, FixedDegreeGraph, link_orphans, occlusion_prune

__all__ = ["HnswBuildStats", "HnswIndex", "MAX_INSERT_BATCH"]

#: Largest insertion batch.  Fig. 11 times hnswlib's multi-threaded build,
#: which inserts up to one node per core against a graph that the other
#: threads are changing; the CPU it models (``CpuSpec.cores``) has 64.
MAX_INSERT_BATCH = 64


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
        """Insert every vector; returns self.

        Every level is drawn up front.  Node 0 seeds the graph; the others
        go in batches of 1, 2, 4, … up to :data:`MAX_INSERT_BATCH`, each
        inserted against the graph as it stood before the batch."""
        n = self.data.shape[0]
        levels = np.array([self._random_level() for _ in range(n)], dtype=np.int64)
        # One adjacency per layer, each row padded with its own id (the
        # engine never scores a pad); ``sizes`` holds the real lengths.
        widths = [self.m0] + [self.m] * int(levels.max())
        rows = [np.repeat(np.arange(n)[:, None], width, axis=1) for width in widths]
        sizes = np.zeros((len(widths), n), dtype=np.int64)
        self.entry_point, self.max_level = 0, int(levels[0])
        start, size = 1, 1
        while start < n:
            batch = np.arange(start, min(start + size, n))
            self._insert_batch(batch, levels[batch], rows, sizes)
            start, size = start + size, min(2 * size, MAX_INSERT_BATCH)
        base = [rows[0][node, : sizes[0, node]] for node in range(n)]
        # Shrinks can take a node's last in-edge; the one repair gives every
        # base-layer node but the entry one back.
        link_orphans(base, self.m0, entry=self.entry_point)
        self.layers = [dict(enumerate(base))] + [
            {int(node): rows[l][node, : sizes[l, node]] for node in np.flatnonzero(levels >= l)}
            for l in range(1, len(widths))
        ]
        self.build_stats.max_level = self.max_level
        self.build_stats.level_sizes = [len(layer) for layer in self.layers]
        self._built = True
        return self

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)

    def _insert_batch(self, batch, levels, rows, sizes) -> None:
        """Insert ``batch`` (levels ``levels``) layer by layer from the top.
        On each layer the members below it descend at beam 1 and the rest
        search it at ``ef_construction``, both against the layer as it
        stood before the batch; then the rest link (:meth:`_link_layer`)."""
        stats, ef = self.build_stats, self.ef_construction
        entries = np.full((len(batch), 1), self.entry_point, dtype=np.int64)
        for l in range(max(self.max_level, int(levels.max())), -1, -1):
            on = levels >= l
            ids, dists = np.empty((on.sum(), 0), np.uint32), np.empty((on.sum(), 0))  # a new top
            if l <= self.max_level:
                graph = FixedDegreeGraph(rows[l])
                for members, beam in ((~on, 1), (on, ef)):  # the ef search last
                    if members.any():
                        ids, dists, counters = batched_beam_search(
                            self.data, graph, self.data[batch[members]], beam, beam,
                            entries[members], self.metric,
                        )
                        stats.distance_computations += counters.distance_computations
                        stats.hops += counters.hops
                        entries[members] = ids[:, :1]
            if on.any():
                found = np.where(ids == INDEX_MASK, -1, ids.astype(np.int64))
                self._link_layer(rows[l], sizes[l], batch[on], found, dists)
        top = int(levels.argmax())
        if levels[top] > self.max_level:
            self.entry_point, self.max_level = int(batch[top]), int(levels[top])

    def _link_layer(self, rows, sizes, nodes, found, found_dists) -> None:
        """Link ``nodes`` into one layer: each selects from what its search
        ``found`` (-1 padded) and the other ``nodes``, nearest
        ``ef_construction`` first; then the reverse links go in rounds."""
        stats = self.build_stats
        others = np.broadcast_to(nodes, (len(nodes), len(nodes)))
        other_dists = gathered_distances(self.data, self.data[nodes], others, self.metric)
        stats.distance_computations += len(nodes) * (len(nodes) - 1)
        others = np.where(np.eye(len(nodes), dtype=bool), -1, others)
        other_dists[others < 0] = np.inf
        ids = np.concatenate([found, others], axis=1)
        dists = np.concatenate([found_dists, other_dists], axis=1)
        order = np.lexsort((ids, dists))[:, : self.ef_construction]
        ids, dists = (np.take_along_axis(a, order, 1) for a in (ids, dists))
        kept = self._select(nodes, ids, dists, self.m)
        self._store(rows, sizes, nodes, kept)
        # Round r plants every host's r-th reverse link, in batch order; a
        # row a round overfills shrinks by the heuristic, as it would under
        # one-at-a-time insertion.  All of a round's shrinks are one call.
        hosts = np.concatenate(kept)
        news = np.repeat(nodes, [len(row) for row in kept])
        by_host = np.argsort(hosts, kind="stable")
        rank = np.empty_like(by_host)
        rank[by_host] = np.arange(len(hosts)) - np.searchsorted(hosts[by_host], hosts[by_host])
        for r in range(int(rank.max(initial=-1)) + 1):
            host, new = hosts[rank == r], news[rank == r]
            fresh = ~(rows[host] == new[:, None]).any(axis=1)  # not linked yet
            host, new = host[fresh], new[fresh]
            room = sizes[host] < rows.shape[1]
            rows[host[room], sizes[host[room]]] = new[room]
            sizes[host[room]] += 1
            full = host[~room]
            if len(full):
                pools = np.concatenate([rows[full], new[~room, None]], axis=1)
                pool_dists = gathered_distances(self.data, self.data[full], pools, self.metric)
                stats.distance_computations += pools.size
                self._store(rows, sizes, full, self._select(full, pools, pool_dists, rows.shape[1]))

    @staticmethod
    def _store(rows, sizes, nodes, kept) -> None:
        """Write each node's ``kept`` ids into its padded row."""
        for node, row in zip(nodes.tolist(), kept):
            rows[node] = node
            rows[node, : len(row)] = row
            sizes[node] = len(row)

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
    def search(
        self, queries: np.ndarray, k: int, ef: int = 64
    ) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
        """Batched k-ANN search; ``ef`` is the recall/throughput knob.  Each
        layer is one engine call: beam 1 down the upper layers (the greedy
        descent), then beam ``ef`` on the base layer from where it ends."""
        if not self._built:
            raise RuntimeError("call build() before search()")
        queries = np.atleast_2d(queries)
        total = BeamCounters()
        entries = np.full((len(queries), 1), self.entry_point, dtype=np.int64)
        for l in range(self.max_level, -1, -1):
            layer = self.layers[l]
            width, beam = (k, max(ef, k)) if l == 0 else (1, 1)
            ids, dists, counters = batched_beam_search(
                self.data, [layer.get(node, ()) for node in range(len(self.data))],
                queries, width, beam, entries, self.metric,
            )
            total.merge_from(counters)
            entries = ids[:, :1]
        total.queries = len(queries)
        return ids, dists, total

    @property
    def base_degree_mean(self) -> float:
        """Average out-degree of the base layer (for degree alignment)."""
        sizes = [len(v) for v in self.layers[0].values()]
        return float(np.mean(sizes)) if sizes else 0.0
