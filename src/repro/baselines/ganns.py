"""GANNS-like GPU baseline (Yu et al., ICDE 2022).

GANNS accelerates NSW-style proximity-graph construction and search on the
GPU by redesigning the data structures: points are inserted in *batches*
— every point in a batch searches the graph as it stood before the batch
(which is what makes the insertions parallel on a GPU) — and linked
bidirectionally to its nearest candidates without HNSW's selection
heuristic.  Search is a best-first traversal with a GPU-friendly
fixed-size pool.

This implementation mirrors that design: batched stale-state NSW
insertion, degree-capped bidirectional linking, beam search from the
global entry point plus random seeds.  Counters feed the GPU cost model
with ``team_size=32`` and a device-memory visited hash — GANNS predates
CAGRA's warp-splitting and forgettable-hash optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.beam import BeamCounters, batched_beam_search
from repro.core.distances import pairwise_distances
from repro.core.graph import link_orphans
from repro.core.rng_init import counter_draws, query_keys

__all__ = ["GannsBuildStats", "GannsIndex"]


@dataclass
class GannsBuildStats:
    """Construction work counters."""

    distance_computations: int = 0
    hops: int = 0
    num_batches: int = 0


class GannsIndex:
    """GANNS-like index: batched GPU-parallel NSW construction.

    Args:
        data: dataset.
        degree: link cap per node (``M`` of NSW; lists are degree-capped
            by nearest-kept rather than HNSW's heuristic).
        ef_construction: beam width during insertion.
        batch_size: insertions that run against the same (stale) graph
            state — the GPU parallelization unit.
        metric: distance metric.
        seed: RNG seed.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 24,
        ef_construction: int = 64,
        batch_size: int = 256,
        metric: str = "sqeuclidean",
        seed: int = 0,
    ):
        self.data = np.asarray(data)
        self.degree = degree
        self.ef_construction = max(ef_construction, degree)
        self.batch_size = batch_size
        self.metric = metric
        self.seed = seed
        self.adjacency: list[np.ndarray] = []
        self.entry_point = 0
        self.build_stats = GannsBuildStats()
        self._built = False

    def build(self) -> "GannsIndex":
        """Insert all points batch-by-batch against stale graph snapshots."""
        n = self.data.shape[0]
        stats = self.build_stats

        # Bootstrap: exact graph over the first small block.
        boot = min(max(self.degree + 1, 64), n)
        d = pairwise_distances(self.data[:boot], self.data[:boot], self.metric)
        stats.distance_computations += boot * boot
        np.fill_diagonal(d, np.inf)
        take = min(self.degree, boot - 1)
        order = np.argsort(d, axis=1, kind="stable")[:, :take]
        self.adjacency = [order[i].astype(np.int64).copy() for i in range(boot)]

        inserted = boot
        while inserted < n:
            batch_end = min(inserted + self.batch_size, n)
            # The whole batch searches the graph as it stood before it.
            found, _, batch_counters = batched_beam_search(
                self.data, self.adjacency, self.data[inserted:batch_end],
                min(self.degree, inserted), self.ef_construction,
                np.full((batch_end - inserted, 1), self.entry_point), self.metric,
            )
            stats.distance_computations += batch_counters.distance_computations
            stats.hops += batch_counters.hops
            # Commit the whole batch: bidirectional links.  Rows may grow
            # to a 2x soft cap during construction (NSW keeps its early
            # long-range links; a hard nearest-only cap would destroy
            # navigability) and are trimmed once at the end.
            soft_cap = 2 * self.degree
            for node, ids in zip(range(inserted, batch_end), found):
                targets = ids[ids < inserted].astype(np.int64)
                self.adjacency.append(targets[: self.degree].copy())
                for t in targets[: self.degree]:
                    row = self.adjacency[int(t)]
                    if node in row:
                        continue
                    if len(row) < soft_cap:
                        self.adjacency[int(t)] = np.append(row, node)
            inserted = batch_end
            stats.num_batches += 1

        self._trim_rows(stats)
        # Reachability guarantee: every node keeps at least one in-edge
        # after trimming.
        link_orphans(self.adjacency, self.degree, entry=self.entry_point)
        self._built = True
        return self

    def _trim_rows(self, stats: GannsBuildStats) -> None:
        """Trim overgrown rows to ``degree``: nearest half for precision,
        earliest-inserted half for NSW's long-range navigability."""
        half = self.degree // 2
        for node, row in enumerate(self.adjacency):
            if len(row) <= self.degree:
                continue
            dists = pairwise_distances(
                self.data[node : node + 1], self.data[row], self.metric
            )[0]
            stats.distance_computations += len(row)
            nearest = row[np.argsort(dists, kind="stable")[:half]]
            earliest = [r for r in row[: self.degree] if r not in nearest][
                : self.degree - len(nearest)
            ]
            self.adjacency[node] = np.concatenate(
                [nearest, np.asarray(earliest, dtype=np.int64)]
            )

    def search(
        self,
        queries: np.ndarray,
        k: int,
        beam_width: int = 64,
        num_seeds: int = 4,
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, BeamCounters]:
        """Beam search from the entry point plus random seeds.

        Query ``q``'s seeds are :func:`repro.core.rng_init.counter_draws`
        keyed on ``(seed, q's bytes)``, so its answer does not depend on
        the rest of the batch.
        """
        if not self._built:
            raise RuntimeError("call build() before search()")
        queries = np.atleast_2d(queries)
        draws = counter_draws(
            seed, query_keys(queries), 0, 0, num_seeds, len(self.adjacency)
        )
        seeds = np.column_stack([np.full(len(queries), self.entry_point), draws])
        return batched_beam_search(
            self.data, self.adjacency, queries, k, beam_width, seeds, self.metric
        )

    @property
    def average_degree(self) -> float:
        return float(np.mean([len(row) for row in self.adjacency]))
