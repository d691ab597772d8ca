"""NN-descent construction of the initial k-NN graph (Dong et al., WWW'11).

CAGRA builds its initial degree-``d_init`` k-NN graph with NN-descent
(Sec. III-B1), then sorts every adjacency list by distance.  This module is
a vectorized NumPy implementation of the algorithm's core idea — *a
neighbor of a neighbor is likely a neighbor* — structured so that each
round does O(N·S²) candidate-distance computations as a handful of batched
array operations rather than per-pair Python work:

1. every node samples ``S`` of its current neighbors, preferring entries
   flagged *new* (not yet expanded), plus ``S`` reverse neighbors;
2. the 2-hop pool ``neighbors(sampled ∪ reverse-sampled)`` becomes the
   round's candidate set, expanded and merged (3) one row block at a time;
3. one sort by id per row finds the *fresh* candidates (distinct ids not
   already in the row), their distances are computed in one gathered batch
   of flat ``(row, id)`` pairs, and one sort by distance merges them into
   the current lists;
4. the round's *update count* (changed list entries) drives the
   termination test ``updates < delta · N · K``.

The result is the exact input the CAGRA optimizer expects: a fixed-degree
graph whose rows are distance-sorted, together with the distance table
(used only by the distance-based reordering ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import GraphBuildConfig
from repro.core.distances import gathered_distances, pairwise_distances
from repro.core.graph import FixedDegreeGraph
from repro.core.topm import (
    INF_ORDER_BITS,
    float32_from_order_bits,
    float32_order_bits,
)

__all__ = ["KnnGraphResult", "build_knn_graph", "brute_force_knn_graph"]


@dataclass
class KnnGraphResult:
    """Output of the initial graph build.

    Attributes:
        graph: degree-``k`` graph; every row sorted by ascending distance.
        distances: ``(N, k)`` float32 distance table aligned with
            ``graph.neighbors`` (consumed by distance-based reordering).
        iterations: NN-descent rounds actually executed.
        distance_computations: candidate pairs the algorithm scores —
            ``N * k`` at initialization plus every ``(row, candidate)``
            pair of every round, repeats included, as a GPU local join
            evaluates them.  This is the work counter
            ``GpuCostModel.knn_build_time`` prices.  The NumPy build
            evaluates each distinct fresh pair once per round, fewer than
            half of these at the benchmark shape (docs/COSTMODEL.md).
    """

    graph: FixedDegreeGraph
    distances: np.ndarray
    iterations: int
    distance_computations: int


def _sample_columns(rng: np.random.Generator, width: int, take: int, rows: int) -> np.ndarray:
    """Per-row random column positions: ``(rows, take)`` ints in [0, width)."""
    return rng.integers(0, width, size=(rows, take))


_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_ID_SHIFT = np.uint64(33)
_ID_UNIT = np.uint64(1) << _ID_SHIFT  # id-sort keys: id 1
_CANDIDATE = np.uint64(1) << _HALF  # id-sort flag: a candidate, not a row entry
_INF_KEY = np.uint64(INF_ORDER_BITS) << _HALF  # (+inf, id 0) merge key

#: ``distance(rows, ids)``: float32 distances of the flat ``(row, id)`` pairs.
PairDistance = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Bytes of one row block's ``(rows, k + 2s(s + 1))`` uint64 merge keys in
#: an NN-descent round.  The merge holds a few slabs of that size, so the
#: round's peak beyond its ``(N, k)`` arrays is this constant, not a multiple
#: of N; 1 MiB built as fast as 256 KiB, 4 MiB and whole-N blocks or faster
#: (EXPERIMENTS.md, "Bounded NN-descent round").
_ROUND_BLOCK_BYTES = 1 << 20


def _merge_candidates(
    ids: np.ndarray,
    dists: np.ndarray,
    cand: np.ndarray,
    k: int,
    distance: PairDistance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge candidate ids into the current k-NN lists, scoring each
    distinct *fresh* id once.

    Returns the new ``(ids, dists)`` arrays plus a boolean mask of entries
    whose id was not in the old row.  Rows come back sorted ascending by
    distance, ties by ascending id, each id at most once; a row with fewer
    than ``k`` distinct ids among ``[ids | cand]`` ends in one ``(+inf,
    id)`` entry per surplus copy, in id order.

    A distance is a function of its ``(row, id)`` pair, and every id of an
    old row holds it there at least once (surplus copies may hold +inf), so
    an id already in the row keeps its distance, and ``distance`` is called
    once, with the pairs of every distinct candidate id not already in its
    row.  Two sorts of packed ``uint64`` keys do the rest:

    * by id: ``id << 33 | is_candidate << 32 | distance bits`` puts a row
      entry ahead of candidate copies of the same id, so the first key of
      each id says whether it is fresh and, if not, carries its distance;
    * by distance: ``distance bits << 32 | id << 1 | is_candidate``, every
      copy after an id's first one at +inf.  A first copy is a candidate
      exactly when it is fresh, so the low bit is the new mask; the rare
      row that keeps a surplus copy is checked against the old row instead.

    Distances are float32 *ordered bits*
    (:func:`repro.core.topm.float32_order_bits`); they must not be NaN
    (``CagraIndex.build`` rejects non-finite data), and ``-0.0`` comes
    back as ``+0.0``.
    """
    n, width = ids.shape[0], ids.shape[1] + cand.shape[1]
    keys = np.empty((n, width), dtype=np.uint64)
    row_part, cand_part = keys[:, : ids.shape[1]], keys[:, ids.shape[1] :]
    row_part[...] = ids
    row_part <<= _ID_SHIFT
    row_part |= float32_order_bits(dists.astype(np.float32))
    cand_part[...] = cand
    cand_part <<= _ID_SHIFT
    cand_part |= _CANDIDATE
    keys.sort(axis=1)

    # A copy repeats the id before it when the keys agree from bit 33 up.
    repeat = np.zeros((n, width), dtype=bool)
    np.less(keys[:, 1:] ^ keys[:, :-1], _ID_UNIT, out=repeat[:, 1:])
    fresh = (keys & _CANDIDATE).astype(bool)
    fresh &= ~repeat
    pairs = np.flatnonzero(fresh)
    del fresh
    pair_ids = (keys.reshape(-1)[pairs] >> _ID_SHIFT).astype(np.int64)

    # Rotate each id-sort key into a distance-sort key: the low half
    # (distance bits; 0 for a candidate) moves up, ``id << 1 | is_candidate``
    # comes down, and a repeat's distance becomes +inf.
    id_half = keys >> _HALF
    keys <<= _HALF
    np.maximum(keys, repeat * _INF_KEY, out=keys)  # no distance's bits exceed +inf's
    keys |= id_half
    del id_half, repeat  # the build's memory peak is this round's key slabs

    pair_rows = (pairs // width).astype(np.int32)
    bits = float32_order_bits(distance(pair_rows, pair_ids).astype(np.float32, copy=False))
    del pair_rows, pair_ids
    flat = keys.reshape(-1)
    flat[pairs] |= bits.astype(np.uint64) << _HALF
    del pairs, bits

    keys.sort(axis=1)
    keys = keys[:, :k]
    entered = (keys & np.uint64(1)).astype(bool)
    new_ids = ((keys & _LOW) >> np.uint64(1)).astype(ids.dtype)
    dist_bits = (keys >> _HALF).astype(np.uint32)
    # A repeat's low bit only says it was a candidate copy: in a row that
    # keeps one, newness is set membership in the old row.
    tail = np.flatnonzero((dist_bits == INF_ORDER_BITS).any(axis=1))
    if tail.size:
        entered[tail] = ~(new_ids[tail, :, None] == ids[tail, None, :]).any(axis=2)
    return new_ids, float32_from_order_bits(dist_bits), entered


def _reverse_samples(
    ids: np.ndarray, take: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample up to ``take`` reverse neighbors per node.

    All (neighbor → node) edges are shuffled, and each node keeps the first
    ``take`` sources to arrive; missing slots repeat the node itself
    (harmless: self-candidates dedupe away).  One sort of packed
    ``(destination, shuffled position)`` keys groups the arrivals by node
    in arrival order.
    """
    n, k = ids.shape
    perm = rng.permutation(n * k)
    keys = ids.reshape(-1)[perm].astype(np.uint64)
    keys <<= _HALF
    keys |= np.arange(n * k, dtype=np.uint64)
    keys.sort()
    counts = np.bincount(ids.reshape(-1), minlength=n)
    arrivals = np.arange(take) < counts[:, None]
    first = (np.cumsum(counts) - counts)[:, None] + np.arange(take)
    out = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, take))
    out[arrivals] = perm[(keys[first[arrivals]] & _LOW).astype(np.intp)] // k
    return out


def build_knn_graph(
    data: np.ndarray,
    k: int,
    config: GraphBuildConfig | None = None,
) -> KnnGraphResult:
    """Build a degree-``k`` approximate k-NN graph with NN-descent.

    Args:
        data: ``(N, dim)`` dataset.
        k: neighbors per node (``d_init`` in CAGRA terms); clamped to
            ``N - 1`` for tiny datasets.
        config: build options; only the ``nn_descent_*``, ``metric`` and
            ``seed`` fields are consulted.

    Each round's candidates are scored for
    :attr:`KnnGraphResult.distance_computations` as the algorithm defines
    them, but a distance is computed only for a candidate id that is new
    to its row, once however often it was sampled; the graph is the same
    bit for bit as when every candidate was computed.
    """
    config = config or GraphBuildConfig()
    n = int(data.shape[0])
    if n < 2:
        raise ValueError("need at least 2 vectors to build a k-NN graph")
    k = min(k, n - 1)
    rng = np.random.default_rng(config.seed)
    metric = config.metric

    def distance(queries: np.ndarray) -> PairDistance:
        """Distances of flat ``(row, id)`` pairs, ``row`` indexing ``queries``."""
        return lambda rows, pair_ids: gathered_distances(
            data, queries, pair_ids[:, None], metric=metric, query_rows=rows
        ).reshape(-1)

    # --- random initialization -------------------------------------------
    ids = rng.integers(0, n - 1, size=(n, k), dtype=np.int64)
    # Avoid self ids: shift anything >= row index up by one, mapping the
    # uniform draw over [0, n-2] onto [0, n-1] \ {row}.
    rows = np.arange(n, dtype=np.int64)[:, None]
    ids[ids >= rows] += 1
    dists = gathered_distances(data, data, ids, metric=metric).astype(np.float32)
    order = np.argsort(dists, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    del order
    is_new = np.ones((n, k), dtype=bool)
    distance_computations = n * k

    # Sample size per round: rho * k, capped — the 2-hop pool grows
    # quadratically in the sample, and beyond ~10 sources per round extra
    # candidates are mostly duplicates (pure overhead in a NumPy build).
    sample = max(1, min(k, 10, int(round(config.nn_descent_sample_rate * k))))
    threshold = config.nn_descent_termination_delta * n * k
    block = max(1, _ROUND_BLOCK_BYTES // (8 * (k + 2 * sample * (sample + 1))))
    iterations_run = 0

    for _ in range(config.nn_descent_iterations):
        iterations_run += 1

        # --- sample forward neighbors, preferring new entries -------------
        # Sort columns so new entries come first, then take a random slice
        # biased toward the front.  Whether an entry was sampled needs no
        # record: after the merge, only the ids it entered count as new.
        pool = np.take_along_axis(ids, np.argsort(~is_new, axis=1, kind="stable"), axis=1)
        fwd_cols = _sample_columns(rng, min(k, 2 * sample), sample, n)
        fwd = np.take_along_axis(pool, fwd_cols, axis=1)
        del pool, fwd_cols
        sources = np.concatenate([fwd, _reverse_samples(ids, sample, rng)], axis=1)  # (n, 2s)
        del fwd

        # --- 2-hop expansion and merge, one row block at a time ------------
        # Each block reads the round's old lists and draws its hop columns
        # in row order, so the blocks continue the one draw stream a
        # whole-N round draws, and the graph does not depend on ``block``.
        new_ids, new_dists = np.empty_like(ids), np.empty_like(dists)
        is_new = np.empty((n, k), dtype=bool)
        for start in range(0, n, block):
            r = slice(start, start + block)
            src = sources[r]
            # candidates[v] = sampled neighbors of each sampled source of v.
            hop_cols = _sample_columns(rng, k, sample, src.size)  # (b*2s, sample)
            cand = ids[src.reshape(-1, 1), hop_cols].reshape(len(src), -1)
            cand = np.concatenate([cand, src], axis=1)  # (b, 2s*(sample+1))
            # Drop self-candidates by replacing them with an existing
            # neighbor (dedupe removes the copy).
            self_mask = cand == rows[r]
            if self_mask.any():
                cand[self_mask] = np.broadcast_to(ids[r, :1], cand.shape)[self_mask]
            # The algorithm scores every candidate pair (the cost model
            # prices them all); the merge evaluates each distinct fresh
            # pair once.
            distance_computations += cand.size
            # Freshly inserted ids must be expanded next round; survivors
            # have already had their chance.
            new_ids[r], new_dists[r], is_new[r] = _merge_candidates(
                ids[r], dists[r], cand, k, distance(data[r])
            )
        ids, dists = new_ids, new_dists

        if is_new.sum() <= threshold:
            break

    graph = FixedDegreeGraph(ids.astype(np.uint32))
    return KnnGraphResult(
        graph=graph,
        distances=dists,
        iterations=iterations_run,
        distance_computations=distance_computations,
    )


def brute_force_knn_graph(
    data: np.ndarray, k: int, metric: str = "sqeuclidean", block: int = 512
) -> KnnGraphResult:
    """Exact k-NN graph by blocked brute force (reference for tests).

    Quadratic in N; intended for small inputs where NN-descent quality is
    being validated.
    """
    n = int(data.shape[0])
    k = min(k, n - 1)
    ids = np.empty((n, k), dtype=np.uint32)
    dists = np.empty((n, k), dtype=np.float32)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = pairwise_distances(data[start:stop], data, metric=metric)
        d[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(d, part, axis=1)
        order = np.argsort(part_d, axis=1, kind="stable")
        ids[start:stop] = np.take_along_axis(part, order, axis=1).astype(np.uint32)
        dists[start:stop] = np.take_along_axis(part_d, order, axis=1)
    return KnnGraphResult(
        graph=FixedDegreeGraph(ids),
        distances=dists,
        iterations=0,
        distance_computations=n * n,
    )
