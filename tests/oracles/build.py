"""The construction kernels that scored every candidate of an NN-descent
round and merged reverse edges one node at a time.

Each is kept verbatim as the oracle for its replacement in
``repro.core.nn_descent`` / ``repro.core.optimize``: the properties in
``tests/test_properties.py`` hold the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import FixedDegreeGraph
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
