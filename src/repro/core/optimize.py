"""CAGRA graph optimization: edge reordering, pruning, reverse-edge merge.

This implements Sec. III-B2 of the paper.  The input is the initial k-NN
graph (degree ``d_init``, rows sorted ascending by distance, so a column
index *is* the edge's initial rank); the output is the final fixed-degree
CAGRA graph (degree ``d``).

Reordering (Fig. 2): for every edge ``X→Y`` we count *detourable routes* —
two-hop paths ``X→Z→Y`` that could replace the direct edge.  Following
NGT's criterion (Eq. 3) a route detours ``X→Y`` when
``max(w(X→Z), w(Z→Y)) < w(X→Y)``.  CAGRA's contribution is the
**rank-based** variant: the *initial rank* (position in the
distance-sorted adjacency list) replaces the distance ``w``, so the whole
optimization runs without a single distance computation or an
``N × d_init`` distance table.  The **distance-based** variant is kept as
the ablation baseline of Figs. 4–5.

Edges are then reordered ascending by detourable-route count (an edge few
routes can bypass is important for 2-hop reachability), pruned to the top
``d``, and finally merged with up to ``d/2`` *reverse* edges per node,
interleaved, reverse lists being ordered by the rank their forward twin
holds ("someone who considers you important is also important to you").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GraphBuildConfig
from repro.core.graph import FixedDegreeGraph
from repro.core.nn_descent import KnnGraphResult

__all__ = [
    "OptimizeReport",
    "count_detourable_routes",
    "reorder_edges",
    "prune_to_degree",
    "merge_reverse_edges",
    "optimize_graph",
]

_BLOCK = 256  # most nodes processed per vectorized batch in the detour counter
#: Bytes the detour counter's dense rank table (rows-per-batch x N int16) may
#: take: rows per batch shrink as N grows, so its random two-hop lookups keep
#: hitting cache (EXPERIMENTS.md, "Cache-blocked construction").
_RANK_TABLE_BYTES = 512 << 10


@dataclass
class OptimizeReport:
    """Work and memory accounting for one optimization run.

    These counters feed the construction-time cost model and the Fig. 4
    bench (rank- vs distance-based optimization time / memory).
    """

    reordering: str = "rank"
    detour_checks: int = 0
    distance_computations: int = 0
    distance_table_bytes: int = 0
    reorder_seconds: float = 0.0
    reverse_merge_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.reverse_merge_seconds


def count_detourable_routes(
    neighbors: np.ndarray,
    distances: np.ndarray | None = None,
    block: int = _BLOCK,
) -> np.ndarray:
    """Detourable-route counts per edge.

    Args:
        neighbors: ``(N, d_init)`` adjacency, rows sorted ascending by
            distance (column index = initial rank).
        distances: optional ``(N, d_init)`` distance table.  When given the
            NGT criterion uses real distances (distance-based reordering);
            when ``None`` the initial rank substitutes for the distance
            (rank-based reordering, the CAGRA default).
        block: most rows per vectorized batch; fewer when that many rows
            of the rank table would exceed :data:`_RANK_TABLE_BYTES`.

    Returns:
        ``(N, d_init)`` int64 counts aligned with ``neighbors``.
    """
    n, d_init = neighbors.shape
    if d_init > np.iinfo(np.int16).max:
        raise ValueError(f"d_init {d_init} does not fit the int16 rank table")
    counts = np.empty((n, d_init), dtype=np.int64)
    col = np.arange(d_init, dtype=np.int16)
    # a = rank of X→Z (first hop), j = rank of Z→Y in Z's list (second hop).
    max_aj = np.maximum(col[:, None], col[None, :])
    block = max(1, min(block, _RANK_TABLE_BYTES // (2 * n)))
    # rank_tab[local row of X, node Y] = rank of Y in X's list, -1 if absent.
    absent = np.int16(-1)
    rank_tab = np.full(block * n, absent, dtype=np.int16)
    local = np.arange(block, dtype=np.intp)[:, None]

    for start in range(0, n, block):
        nx = neighbors[start : start + block].astype(np.intp)  # (b, d_init) = Z ids
        b = len(nx)
        base = local[:b] * n
        slots = nx + base
        # One column at a time, highest rank first: a node listed twice keeps
        # its lowest rank whatever order a fancy assignment writes in.
        for rank in range(d_init - 1, -1, -1):
            rank_tab[slots[:, rank]] = rank
        two_hop = neighbors[nx]  # (b, d_init, d_init) = Y ids
        # Rank of each two-hop target Y inside X's own adjacency row.
        rank_y = rank_tab.take(two_hop + base[:, :, None])
        rank_tab[slots] = absent

        if distances is None:
            # Rank-based: detourable iff max(a, j) < rank(X→Y), which an
            # absent Y (rank -1) never satisfies.
            detour = max_aj < rank_y
        else:
            w_x = distances[start : start + block]
            w_xy = np.take_along_axis(
                w_x, rank_y.reshape(b, -1).astype(np.intp), axis=1
            ).reshape(rank_y.shape)
            w_via = np.maximum(w_x[:, :, None], distances[nx])
            detour = (rank_y != absent) & (w_via < w_xy)

        hits = (rank_y + (local[:b] * d_init)[:, :, None])[detour]
        counts[start : start + block] = np.bincount(
            hits, minlength=b * d_init
        ).reshape(b, d_init)
    return counts


def reorder_edges(
    neighbors: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Reorder every adjacency row ascending by detourable-route count.

    Stable sort: ties keep their initial (distance) rank, matching Fig. 2
    where the count order falls back on the original ordering.
    """
    order = np.argsort(counts, axis=1, kind="stable")
    return np.take_along_axis(neighbors, order, axis=1)


def prune_to_degree(neighbors: np.ndarray, degree: int) -> np.ndarray:
    """Keep the first ``degree`` (most important) edges of every row."""
    if degree > neighbors.shape[1]:
        raise ValueError(
            f"cannot prune to degree {degree}: rows only have {neighbors.shape[1]} edges"
        )
    return np.ascontiguousarray(neighbors[:, :degree])


def merge_reverse_edges(
    pruned: FixedDegreeGraph, rng: np.random.Generator | None = None
) -> FixedDegreeGraph:
    """Interleave forward and reverse edges into the final CAGRA graph.

    Per node: up to ``d/2`` reverse edges (ordered by the rank of their
    forward twin) are interleaved with forward edges; missing reverse slots
    are compensated from the forward list (Sec. III-B2).  Duplicates are
    skipped; in pathological tiny graphs remaining slots are filled with
    random distinct nodes so the out-degree stays fixed.

    Every node runs the interleave at once, in lockstep: each micro-step
    reads one candidate per unfinished node (from its reverse list on a
    reverse slot while it has reverse edges and fewer than ``d/2`` taken,
    else from its forward list, else the rest of its reverse list) and
    keeps it unless the row already holds it.  A node reads at most ``d``
    forward and ``d`` reverse candidates, so there are at most ``2d``
    steps.  Only the rows still short after that go through the scalar
    random fill, in node order.
    """
    rng = rng or np.random.default_rng(0)
    n, d = pruned.num_nodes, pruned.degree
    half = d // 2
    forward = pruned.neighbors.astype(np.int64)
    sources, offsets = pruned.reversed_edges()
    rev_len = np.minimum(np.diff(offsets), d)
    chosen = np.full((n, d), -1, dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    fwd_pos = np.zeros(n, dtype=np.int64)
    rev_pos = np.zeros(n, dtype=np.int64)
    rev_taken = np.zeros(n, dtype=np.int64)

    nodes = np.arange(n, dtype=np.int64)
    while nodes.size:
        has_rev = rev_pos[nodes] < rev_len[nodes]
        has_fwd = fwd_pos[nodes] < d
        reverse_slot = (filled[nodes] % 2 == 1) & (rev_taken[nodes] < half) & has_rev
        from_rev = reverse_slot | (has_rev & ~has_fwd)
        live = from_rev | has_fwd  # both lists dry: the row is done
        nodes, from_rev, reverse_slot = nodes[live], from_rev[live], reverse_slot[live]
        cand = np.empty(nodes.size, dtype=np.int64)
        at_rev, at_fwd = nodes[from_rev], nodes[~from_rev]
        cand[from_rev] = sources[offsets[at_rev] + rev_pos[at_rev]]
        cand[~from_rev] = forward[at_fwd, fwd_pos[at_fwd]]
        rev_pos[at_rev] += 1
        fwd_pos[at_fwd] += 1
        keep = (cand != nodes) & ~(chosen[nodes] == cand[:, None]).any(axis=1)
        took = nodes[keep]
        chosen[took, filled[took]] = cand[keep]
        filled[took] += 1
        rev_taken[took] += reverse_slot[keep]
        nodes = nodes[filled[nodes] < d]

    for node in np.flatnonzero(filled < d):  # malformed rows only
        seen = {int(node), *chosen[node, : filled[node]].tolist()}
        while filled[node] < d:
            cand = int(rng.integers(0, n))
            if cand not in seen:
                chosen[node, filled[node]] = cand
                filled[node] += 1
                seen.add(cand)
    return FixedDegreeGraph(chosen.astype(np.uint32))


def optimize_graph(
    initial: KnnGraphResult,
    config: GraphBuildConfig,
) -> tuple[FixedDegreeGraph, OptimizeReport]:
    """Run the full CAGRA optimization pipeline on an initial k-NN graph.

    Honors ``config.reordering`` (``rank`` / ``distance`` / ``none``) and
    ``config.add_reverse_edges`` so the Fig. 3 partial-optimization
    ablations reuse this single entry point.
    """
    d = config.graph_degree
    neighbors = initial.graph.neighbors
    n, d_init = neighbors.shape
    if d > d_init:
        raise ValueError(
            f"graph_degree {d} exceeds initial degree {d_init}; "
            "raise intermediate_degree"
        )
    report = OptimizeReport(reordering=config.reordering)

    started = time.perf_counter()
    if config.reordering == "none":
        reordered = neighbors
    else:
        distances = None
        if config.reordering == "distance":
            distances = initial.distances
            report.distance_table_bytes = distances.nbytes
            report.distance_computations = 0  # table reused from NN-descent
            report.notes.append(
                "distance-based reordering holds an N x d_init distance table "
                f"({distances.nbytes / 1e6:.1f} MB)"
            )
        counts = count_detourable_routes(neighbors, distances=distances)
        report.detour_checks = n * d_init * d_init
        reordered = reorder_edges(neighbors, counts)
    pruned = FixedDegreeGraph(prune_to_degree(reordered, d))
    report.reorder_seconds = time.perf_counter() - started

    started = time.perf_counter()
    if config.add_reverse_edges:
        final = merge_reverse_edges(pruned, rng=np.random.default_rng(config.seed))
    else:
        final = pruned
    report.reverse_merge_seconds = time.perf_counter() - started
    return final, report
