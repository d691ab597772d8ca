"""Fixed out-degree graph container.

The CAGRA graph is "a directed graph where the degree ``d`` of all nodes is
the same" (Sec. III-B), which maps to a dense ``(N, d)`` ``uint32`` array —
exactly the layout the CUDA kernels consume.  The same container also holds
the intermediate NN-descent k-NN graph (degree ``d_init``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedDegreeGraph", "PARENT_FLAG", "INDEX_MASK", "MAX_DATASET_SIZE"]

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
