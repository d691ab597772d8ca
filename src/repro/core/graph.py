"""Fixed out-degree graph container.

The CAGRA graph is "a directed graph where the degree ``d`` of all nodes is
the same" (Sec. III-B), which maps to a dense ``(N, d)`` ``uint32`` array —
exactly the layout the CUDA kernels consume.  The same container also holds
the intermediate NN-descent k-NN graph (degree ``d_init``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import gathered_distances, paired_dots, unit_directions

__all__ = [
    "FixedDegreeGraph", "PARENT_FLAG", "INDEX_MASK", "MAX_DATASET_SIZE", "link_orphans",
    "occlusion_prune",
]

#: MSB of a uint32 node id; used by the search as the 1-bit "has been a
#: parent" flag (Sec. IV-B4).
PARENT_FLAG = np.uint32(1 << 31)

#: Mask clearing :data:`PARENT_FLAG` from a flagged id.
INDEX_MASK = np.uint32((1 << 31) - 1)

#: Using the MSB as a flag halves the addressable id space (paper: "the
#: supported maximum size of the dataset is only 2^31 - 1").
MAX_DATASET_SIZE = int(INDEX_MASK)


@dataclass
class FixedDegreeGraph:
    """A directed graph where every node has exactly ``degree`` out-edges.

    Attributes:
        neighbors: ``(num_nodes, degree)`` uint32 array; row ``i`` lists the
            out-neighbors of node ``i``, most important first (after CAGRA
            optimization the order encodes edge rank).
    """

    neighbors: np.ndarray

    def __post_init__(self) -> None:
        neighbors = np.asarray(self.neighbors)
        if neighbors.ndim != 2:
            raise ValueError(f"neighbors must be 2-D, got shape {neighbors.shape}")
        if neighbors.dtype != np.uint32:
            if np.issubdtype(neighbors.dtype, np.integer):
                if neighbors.size and (
                    neighbors.min() < 0 or neighbors.max() > MAX_DATASET_SIZE
                ):
                    raise ValueError("node ids must fit in 31 bits")
                neighbors = neighbors.astype(np.uint32)
            else:
                raise TypeError("neighbors must be an integer array")
        if neighbors.size and neighbors.max() >= neighbors.shape[0]:
            raise ValueError("neighbor id out of range")
        self.neighbors = np.ascontiguousarray(neighbors)

    @property
    def num_nodes(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def degree(self) -> int:
        return int(self.neighbors.shape[1])

    def __len__(self) -> int:
        return self.num_nodes

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbor ids of ``node`` (a view, do not mutate)."""
        return self.neighbors[node]

    def has_self_loops(self) -> bool:
        """True if any node lists itself as a neighbor."""
        ids = np.arange(self.num_nodes, dtype=np.uint32)[:, None]
        return bool(np.any(self.neighbors == ids))

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (not fixed, unlike the out-degree)."""
        return np.bincount(
            self.neighbors.ravel().astype(np.int64), minlength=self.num_nodes
        )

    def reversed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Incoming-edge sources of every node, flat: node ``v``'s list is
        ``sources[offsets[v]:offsets[v + 1]]``, ordered by the rank the edge
        has in its source row (ascending), ties by source id.

        This is the "reversed graph ... sorted by the rank in the pruned
        graph" of Sec. III-B2: position ``r`` in a source row is the edge's
        rank, and lower-rank (more important) reverse edges come first.
        """
        n, d = self.neighbors.shape
        dst = self.neighbors.ravel().astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.uint32), d)
        rank = np.tile(np.arange(d, dtype=np.int64), n)
        # Sort primarily by destination, secondarily by rank: stable sort on
        # the composite key keeps reverse lists rank-ordered.
        order = np.lexsort((rank, dst))
        offsets = np.searchsorted(dst[order], np.arange(n + 1))
        return src[order], offsets

    def reversed_edge_lists(self) -> list[np.ndarray]:
        """:meth:`reversed_edges` as one array per node."""
        sources, offsets = self.reversed_edges()
        return [sources[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]

    def copy(self) -> "FixedDegreeGraph":
        return FixedDegreeGraph(self.neighbors.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedDegreeGraph):
            return NotImplemented
        return (
            self.neighbors.shape == other.neighbors.shape
            and bool(np.array_equal(self.neighbors, other.neighbors))
        )


def occlusion_prune(data: np.ndarray, nodes, cand_ids, cand_dists, degree: int, rule: str, *,
                    metric: str = "sqeuclidean", cos_threshold: float = 0.5):
    """The one occlusion filter: per row, keep candidates nearest first, up
    to ``degree``, dropping each one that a kept one occludes.

    Row ``i`` prunes for ``nodes[i]``: ``cand_ids[i]`` in (distance, id)
    order, -1 padded, at ``cand_dists[i]``.  ``"rng"`` (HNSW) drops ``c`` if
    a kept ``s`` has ``d(c, s) < d(node, c)``; ``"angle"`` (NSSG) if the
    cosine at the node between ``c`` and a kept ``s`` exceeds
    ``cos_threshold``, and skips candidates on the node.  One step per
    pick, vectorised over the rows.

    Returns the kept ids, ``(rows, degree)`` -1 padded, and each row's
    charge under its rule's counting (docs/COSTMODEL.md)."""
    if rule not in ("rng", "angle"):
        raise ValueError(f"unknown occlusion rule {rule!r}")
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    rows, width = cand_ids.shape
    alive = cand_ids >= 0
    end = alive.sum(axis=1)  # candidates examined: all, unless the row fills
    if rule == "angle":
        directions, zero = unit_directions(data, nodes, np.maximum(cand_ids, 0))
        alive &= ~zero
    kept = np.full((rows, degree), -1, dtype=np.int64)
    tests = np.zeros((rows, width), dtype=np.int64)
    for step in range(degree):
        live = np.flatnonzero(alive.any(axis=1))
        if len(live) == 0:
            break
        pick = alive[live].argmax(axis=1)
        alive[live, pick] = False
        kept[live, step] = cand_ids[live, pick]
        if rule == "rng":  # every later candidate is scored against each pick
            tests[live] += np.arange(width) > pick[:, None]
        if step == degree - 1:
            end[live] = pick + 1
            break
        at, col = np.nonzero(alive[live])
        row = live[at]
        if rule == "rng":
            d_cs = gathered_distances(data, data[cand_ids[row, col]], kept[row, step, None], metric)
            occluded = d_cs[:, 0] < cand_dists[row, col]
        else:  # one angle test per live candidate, up to its first failure
            tests[row, col] += 1
            occluded = paired_dots(directions[row, col], directions[row, pick[at]]) > cos_threshold
        alive[row[occluded], col[occluded]] = False
    return kept, (tests * (np.arange(width) < end[:, None])).sum(axis=1)


def link_orphans(rows, degree: int, entry: int = -1, links=()) -> int:
    """The one reachability repair; returns how many edges it wrote.

    First each ``(host, node)`` pair of ``links`` (reverse links, in
    order) is planted in ``host``'s row, unless already there.  Then every
    node but ``entry`` that still has no in-edge goes into the first row
    among its out-neighbours' (then every node's) that takes it.  A row
    takes a node if it has room below ``degree`` or a slot whose entry has
    another in-edge, the last such slot being overwritten, so no write
    ever loses a node its last in-edge.  ``rows`` (id arrays or lists, no
    self-loops) is updated in place.
    """
    n = len(rows)
    targets = np.fromiter((t for row in rows for t in row), dtype=np.int64)
    in_degree = np.bincount(targets, minlength=n)

    def plant(host: int, node: int) -> bool:
        row = rows[host]
        if host == node or node in row:
            return False
        if len(row) < degree:
            rows[host] = np.append(row, node)
        else:
            spare = next((j for j in range(len(row) - 1, -1, -1) if in_degree[row[j]] > 1), -1)
            if spare < 0:
                return False
            in_degree[row[spare]] -= 1
            row[spare] = node
        in_degree[node] += 1
        return True

    linked = sum(plant(host, node) for host, node in links)
    for node in np.flatnonzero(in_degree == 0).tolist():
        if node != entry:
            linked += any(plant(host, node) for host in [*rows[node], *range(n)])
    return linked
