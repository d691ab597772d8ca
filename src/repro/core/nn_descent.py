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
   round's candidate set;
3. candidate distances are computed in one gathered batch and merged into
   the current lists with a vectorized sort/deduplicate;
4. the round's *update count* (changed list entries) drives the
   termination test ``updates < delta · N · K``.

The result is the exact input the CAGRA optimizer expects: a fixed-degree
graph whose rows are distance-sorted, together with the distance table
(used only by the distance-based reordering ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        distance_computations: total candidate distances evaluated — the
            work counter used by the construction-time cost model.
    """

    graph: FixedDegreeGraph
    distances: np.ndarray
    iterations: int
    distance_computations: int


def _sample_columns(rng: np.random.Generator, width: int, take: int, rows: int) -> np.ndarray:
    """Per-row random column positions: ``(rows, take)`` ints in [0, width)."""
    return rng.integers(0, width, size=(rows, take))


_HALF = np.uint64(32)
_INF_KEY = np.uint64(INF_ORDER_BITS) << _HALF  # (+inf, id 0) key


def _merge_candidates(
    ids: np.ndarray,
    dists: np.ndarray,
    cand_ids: np.ndarray,
    cand_dists: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge candidate columns into the current k-NN lists.

    Returns the new ``(ids, dists)`` arrays plus a boolean mask of entries
    whose id is genuinely new to the row (set membership, not position).
    Duplicate ids within a row keep only their best distance; the rows stay
    sorted ascending by distance, ties by ascending id.

    Every entry is one ``uint64``: a 32-bit id and the float32 distance as
    *ordered bits* (:func:`repro.core.topm.float32_order_bits`: unsigned
    order is float order).  Both orderings are a plain in-place
    ``sort`` of such keys — equal keys are the same (id, distance) pair, so
    nothing needs a stable sort, an argsort or a gather.  Distances must not
    be NaN (``CagraIndex.build`` rejects non-finite data); ``-0.0`` comes
    back as ``+0.0``.
    """
    bits = float32_order_bits(
        np.concatenate([dists, cand_dists], axis=1, dtype=np.float32)
    )

    # Deduplicate per row: sort by (id, dist); a repeat of the previous id
    # is a worse copy and gets +inf, so only the best copy of each id
    # survives the distance sort.
    keys = np.concatenate([ids, cand_ids], axis=1, dtype=np.uint64, casting="unsafe")
    keys <<= _HALF
    keys |= bits
    keys.sort(axis=1)
    sorted_ids = keys >> _HALF
    keys <<= _HALF  # (dist, 0)
    np.putmask(keys[:, 1:], sorted_ids[:, 1:] == sorted_ids[:, :-1], _INF_KEY)
    keys |= sorted_ids
    keys.sort(axis=1)
    keys = keys[:, :k]
    new_ids = (keys & np.uint64(0xFFFFFFFF)).astype(ids.dtype)
    new_dists = float32_from_order_bits((keys >> _HALF).astype(np.uint32))

    # Set-based newness: an entry counts as an update only if its id was not
    # in the old row at all (positions churn every round and never settle).
    n = ids.shape[0]
    offsets = np.arange(n, dtype=np.int64)[:, None] * np.int64(1 << 32)
    old_sorted = np.sort(ids + offsets, axis=1)
    keys = new_ids + offsets
    pos = np.searchsorted(old_sorted.ravel(), keys.ravel())
    pos = np.minimum(pos, old_sorted.size - 1)
    entered = (old_sorted.ravel()[pos] != keys.ravel()).reshape(n, k)
    return new_ids, new_dists, entered


def _reverse_samples(
    ids: np.ndarray, take: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample up to ``take`` reverse neighbors per node.

    Built by scattering all (neighbor → node) pairs, shuffling, and keeping
    the first ``take`` arrivals per destination; missing slots repeat the
    node itself (harmless: self-candidates dedupe away).
    """
    n, k = ids.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = ids.ravel().astype(np.int64)
    perm = rng.permutation(len(dst))
    src, dst = src[perm], dst[perm]
    out = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, take))
    fill = np.zeros(n, dtype=np.int64)
    for s, d in zip(src, dst):
        slot = fill[d]
        if slot < take:
            out[d, slot] = s
            fill[d] = slot + 1
    return out


def _reverse_samples_fast(
    ids: np.ndarray, take: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized variant of :func:`_reverse_samples`.

    Sorting the shuffled (dst, src) pairs by destination lets us slice the
    first ``take`` sources per destination without a Python loop.
    """
    n, k = ids.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = ids.ravel().astype(np.int64)
    perm = rng.permutation(len(dst))
    src, dst = src[perm], dst[perm]
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.searchsorted(dst, np.arange(n))
    counts = np.minimum(np.searchsorted(dst, np.arange(n), side="right") - starts, take)
    out = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, take))
    cols = np.arange(take)[None, :]
    mask = cols < counts[:, None]
    flat_pos = (starts[:, None] + cols)[mask]
    out[mask] = src[flat_pos]
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
    """
    config = config or GraphBuildConfig()
    n = int(data.shape[0])
    if n < 2:
        raise ValueError("need at least 2 vectors to build a k-NN graph")
    k = min(k, n - 1)
    rng = np.random.default_rng(config.seed)
    metric = config.metric

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
    is_new = np.ones((n, k), dtype=bool)
    distance_computations = n * k

    # Sample size per round: rho * k, capped — the 2-hop pool grows
    # quadratically in the sample, and beyond ~10 sources per round extra
    # candidates are mostly duplicates (pure overhead in a NumPy build).
    sample = max(1, min(k, 10, int(round(config.nn_descent_sample_rate * k))))
    threshold = config.nn_descent_termination_delta * n * k
    iterations_run = 0

    for _ in range(config.nn_descent_iterations):
        iterations_run += 1

        # --- sample forward neighbors, preferring new entries -------------
        # Sort columns so new entries come first, then take a random slice
        # biased toward the front.
        newness_order = np.argsort(~is_new, axis=1, kind="stable")
        pool = np.take_along_axis(ids, newness_order, axis=1)
        fwd_cols = _sample_columns(rng, min(k, 2 * sample), sample, n)
        fwd = np.take_along_axis(pool, fwd_cols, axis=1)
        # Mark the sampled-new entries as expanded (old) for later rounds.
        sampled_mask = np.zeros((n, k), dtype=bool)
        np.put_along_axis(
            sampled_mask, np.take_along_axis(newness_order, fwd_cols, axis=1), True, axis=1
        )
        is_new &= ~sampled_mask

        rev = _reverse_samples_fast(ids, sample, rng)

        # --- 2-hop expansion ----------------------------------------------
        sources = np.concatenate([fwd, rev], axis=1)  # (n, 2*sample)
        # candidates[v] = sampled neighbors of each sampled source of v.
        hop_cols = _sample_columns(rng, k, sample, sources.size)  # (n*2s, sample)
        cand = ids[sources.reshape(-1, 1), hop_cols].reshape(n, -1)  # (n, 2s*sample)
        cand = np.concatenate([cand, sources], axis=1)

        # Drop self-candidates by replacing them with an existing neighbor
        # (dedupe removes the copy).
        self_mask = cand == rows
        if self_mask.any():
            cand[self_mask] = np.broadcast_to(ids[:, :1], cand.shape)[self_mask]

        cand_dists = gathered_distances(data, data, cand, metric=metric).astype(
            np.float32
        )
        distance_computations += cand.size

        new_ids, new_dists, entered = _merge_candidates(ids, dists, cand, cand_dists, k)
        # Freshly inserted ids must be expanded next round; survivors have
        # already had their chance.
        is_new = entered
        ids, dists = new_ids, new_dists

        if entered.sum() <= threshold:
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
