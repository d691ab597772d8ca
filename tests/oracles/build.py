"""The construction kernels that scored every candidate of an NN-descent
round, expanded and merged a round's candidates for all rows at once, and
merged reverse edges one node at a time.

Each is kept verbatim as the oracle for its replacement in
``repro.core.nn_descent`` / ``repro.core.optimize``: the properties in
``tests/test_properties.py`` hold the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GraphBuildConfig
from repro.core.distances import gathered_distances
from repro.core.graph import FixedDegreeGraph
from repro.core.nn_descent import (
    KnnGraphResult,
    _merge_candidates,
    _reverse_samples,
    _sample_columns,
)
from repro.core.topm import INF_ORDER_BITS, float32_from_order_bits, float32_order_bits

_HALF = np.uint64(32)
_INF_KEY = np.uint64(INF_ORDER_BITS) << _HALF  # (+inf, id 0) key


def merge_candidates(
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
    sorted ascending by distance, ties by ascending id.  Every candidate
    arrives with its distance, so a repeated id is scored once per copy.
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
    # in the old row at all.
    n = ids.shape[0]
    offsets = np.arange(n, dtype=np.int64)[:, None] * np.int64(1 << 32)
    old_sorted = np.sort(ids + offsets, axis=1)
    keys = new_ids + offsets
    pos = np.searchsorted(old_sorted.ravel(), keys.ravel())
    pos = np.minimum(pos, old_sorted.size - 1)
    entered = (old_sorted.ravel()[pos] != keys.ravel()).reshape(n, k)
    return new_ids, new_dists, entered


def reverse_samples(ids: np.ndarray, take: int, rng: np.random.Generator) -> np.ndarray:
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


def build_knn_graph(
    data: np.ndarray,
    k: int,
    config: GraphBuildConfig | None = None,
) -> KnnGraphResult:
    """NN-descent whose every round expands the 2-hop candidates of all
    ``N`` rows into one ``(N, 2s(s + 1))`` slab and merges it in one call,
    drawing the whole round's hop columns at once."""
    config = config or GraphBuildConfig()
    n = int(data.shape[0])
    if n < 2:
        raise ValueError("need at least 2 vectors to build a k-NN graph")
    k = min(k, n - 1)
    rng = np.random.default_rng(config.seed)
    metric = config.metric

    def distance(rows: np.ndarray, pair_ids: np.ndarray) -> np.ndarray:
        return gathered_distances(
            data, data, pair_ids[:, None], metric=metric, query_rows=rows
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

        rev = _reverse_samples(ids, sample, rng)

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

        # The algorithm scores every candidate pair (the cost model prices
        # them all); the merge evaluates each distinct fresh pair once.
        distance_computations += cand.size

        new_ids, new_dists, entered = _merge_candidates(ids, dists, cand, k, distance)
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


def merge_reverse_edges(
    pruned: FixedDegreeGraph, rng: np.random.Generator | None = None
) -> FixedDegreeGraph:
    """Interleave forward and reverse edges into the final CAGRA graph,
    one node at a time.

    Per node: up to ``d/2`` reverse edges (ordered by the rank of their
    forward twin) are interleaved with forward edges; missing reverse slots
    are compensated from the forward list (Sec. III-B2).  Duplicates are
    skipped; in pathological tiny graphs remaining slots are filled with
    random distinct nodes so the out-degree stays fixed.
    """
    rng = rng or np.random.default_rng(0)
    d = pruned.degree
    n = pruned.num_nodes
    half = d // 2
    reverse_lists = pruned.reversed_edge_lists()
    merged = np.empty((n, d), dtype=np.uint32)

    for node in range(n):
        fwd = pruned.neighbors[node]
        rev = reverse_lists[node][:d]
        chosen: list[int] = []
        seen = {node}
        fwd_pos = rev_pos = 0
        rev_taken = 0
        # Interleave: forward slot, then reverse slot, compensating from
        # the forward list when reverse edges run out.
        while len(chosen) < d:
            use_reverse = (len(chosen) % 2 == 1) and rev_taken < half
            advanced = False
            if use_reverse:
                while rev_pos < len(rev):
                    cand = int(rev[rev_pos])
                    rev_pos += 1
                    if cand not in seen:
                        chosen.append(cand)
                        seen.add(cand)
                        rev_taken += 1
                        advanced = True
                        break
            if not advanced:
                while fwd_pos < len(fwd):
                    cand = int(fwd[fwd_pos])
                    fwd_pos += 1
                    if cand not in seen:
                        chosen.append(cand)
                        seen.add(cand)
                        advanced = True
                        break
            if not advanced:
                # Forward exhausted: drain remaining reverse edges (on a
                # reverse slot they already are, and the row is done).
                while rev_pos < len(rev):
                    cand = int(rev[rev_pos])
                    rev_pos += 1
                    if cand not in seen:
                        chosen.append(cand)
                        seen.add(cand)
                        advanced = True
                        break
                if not advanced:
                    break
        while len(chosen) < d:
            cand = int(rng.integers(0, n))
            if cand not in seen:
                chosen.append(cand)
                seen.add(cand)
        merged[node] = np.asarray(chosen, dtype=np.uint32)
    return FixedDegreeGraph(merged)
