"""Top-M buffer maintenance (Sec. IV-B2).

Step ① of the search keeps the best ``M`` (id, distance) pairs of the
whole buffer.  On the GPU this is a *merge*, not a full sort: the internal
top-M part is already sorted, so the kernel sorts only the candidate part
(warp-level bitonic sort when it fits in registers, i.e. length <= 512;
a CTA-wide radix sort otherwise) and bitonic-merges the two runs.

Functionally a merge is a merge, so :func:`merge_topm` produces the result
with NumPy; :func:`bitonic_sort` is a real bitonic network used to (a)
count comparator stages for the cost model and (b) let the tests verify
the network against the NumPy result.  :func:`sort_strategy` encodes the
<=512 register-sort rule so the cost model charges the right kernel.

:func:`float32_order_bits` / :func:`float32_from_order_bits` are the key
trick behind the array-parallel merges (the dense traversal backend's and
NN-descent's): a float32 distance as ``uint32`` bits whose unsigned order
is the float order, so (distance, id) pairs sort as one ``uint64`` each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bitonic_sort",
    "bitonic_merge",
    "bitonic_comparator_count",
    "float32_from_order_bits",
    "float32_order_bits",
    "merge_topm",
    "radix_topk",
    "sort_strategy",
]


#: :func:`float32_order_bits` of ``+inf``; every finite distance encodes below.
INF_ORDER_BITS = np.uint32(0xFF800000)

_SIGN = np.uint32(1 << 31)


def float32_order_bits(dists: np.ndarray) -> np.ndarray:
    """Encode float32 distances **in place** as ``uint32`` *ordered bits*.

    Sign bit flipped for positives, every bit for negatives: unsigned
    integer order is then float order, so a distance can be the high half
    of a packed sort key (the NN-descent merge and the dense engine merge
    both sort ``order bits << 32 | id``).  ``-0.0`` is folded into ``+0.0``
    first — they compare equal, so must their bits.  Distances must not be
    NaN.  Returns a view of ``dists``' own buffer, which is consumed.
    """
    dists += np.float32(0.0)
    bits = dists.view(np.uint32)
    bits ^= (bits.view(np.int32) >> 31).view(np.uint32) | _SIGN
    return bits


def float32_from_order_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`float32_order_bits`, also in place on ``bits``."""
    bits ^= ((bits >> 31) - np.uint32(1)) | _SIGN
    return bits.view(np.float32)


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


def bitonic_sort(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (keys, values) pairs ascending by key with a bitonic network.

    Inputs of non-power-of-two length are padded with ``+inf`` keys, which
    is exactly what the CUDA kernel does with its register slack.
    """
    n = len(keys)
    size = _next_pow2(n)
    k = np.full(size, np.inf, dtype=np.float64)
    v = np.zeros(size, dtype=np.asarray(values).dtype)
    k[:n] = keys
    v[:n] = values

    stage = 2
    while stage <= size:
        step = stage // 2
        while step >= 1:
            idx = np.arange(size, dtype=np.int64)
            partner = idx ^ step
            active = partner > idx
            i = idx[active]
            j = partner[active]
            ascending = (i & stage) == 0
            swap = np.where(ascending, k[i] > k[j], k[i] < k[j])
            si, sj = i[swap], j[swap]
            k[si], k[sj] = k[sj].copy(), k[si].copy()
            v[si], v[sj] = v[sj].copy(), v[si].copy()
            step //= 2
        stage *= 2
    return k[:n], v[:n]


def bitonic_comparator_count(length: int) -> int:
    """Number of compare-exchange operations a bitonic sort of ``length``
    elements performs: ``(n/2) * s * (s+1) / 2`` with ``s = log2(n)``."""
    n = _next_pow2(length)
    if n <= 1:
        return 0
    stages = n.bit_length() - 1
    return (n // 2) * stages * (stages + 1) // 2


def merge_topm(
    topm_ids: np.ndarray,
    topm_dists: np.ndarray,
    cand_ids: np.ndarray,
    cand_dists: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the candidate list into the internal top-M list.

    Both inputs carry (id, distance) pairs; ids may have the MSB parented
    flag set — the flag travels with the entry, as it does in the CUDA
    buffer.  Duplicate node ids (ignoring the flag) keep the entry that
    appears first in (top-M, candidates) order so a parented copy in the
    top-M list is never displaced by its unparented twin from the
    candidate list.

    Returns new ``(ids, dists)`` arrays of length ``m``, sorted ascending
    by distance; short inputs are padded with ``inf`` / dummy ids just
    like the initialization step's dummy entries.
    """
    from repro.core.graph import INDEX_MASK

    ids = np.concatenate([topm_ids, cand_ids]).astype(np.uint32)
    dists = np.concatenate([topm_dists, cand_dists]).astype(np.float64)

    # Drop duplicate bare ids, keeping the first (top-M-first) occurrence.
    bare = ids & INDEX_MASK
    first = np.zeros(len(ids), dtype=bool)
    seen_order = np.argsort(bare, kind="stable")
    sorted_bare = bare[seen_order]
    is_first = np.ones(len(ids), dtype=bool)
    is_first[1:] = sorted_bare[1:] != sorted_bare[:-1]
    first[seen_order] = is_first
    ids = ids[first]
    dists = dists[first]

    order = np.argsort(dists, kind="stable")[:m]
    out_ids = ids[order]
    out_dists = dists[order]
    if len(out_ids) < m:
        pad = m - len(out_ids)
        out_ids = np.concatenate([out_ids, np.full(pad, INDEX_MASK, dtype=np.uint32)])
        out_dists = np.concatenate([out_dists, np.full(pad, np.inf)])
    return out_ids, out_dists


def bitonic_merge(
    keys_a: np.ndarray,
    values_a: np.ndarray,
    keys_b: np.ndarray,
    values_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two *sorted* runs with a bitonic merge network.

    This is the cheap path of Sec. IV-B2: the internal top-M part is
    already sorted, so after sorting only the candidate part the kernel
    merges the two runs with ``log2(n)`` comparator stages instead of a
    full sort.  Reversing the second run makes the concatenation bitonic;
    the merge network then sorts it.
    """
    n_a, n_b = len(keys_a), len(keys_b)
    total = n_a + n_b
    size = _next_pow2(total)
    k = np.full(size, np.inf, dtype=np.float64)
    v = np.zeros(size, dtype=np.asarray(values_a).dtype if n_a else
                 np.asarray(values_b).dtype)
    k[:n_a] = keys_a
    v[:n_a] = values_a
    # Second run reversed: ascending-then-descending = bitonic.  The inf
    # padding sits between the runs, which keeps the sequence bitonic.
    k[size - n_b:] = keys_b[::-1]
    v[size - n_b:] = values_b[::-1]

    step = size // 2
    while step >= 1:
        idx = np.arange(size, dtype=np.int64)
        partner = idx ^ step
        active = partner > idx
        i = idx[active]
        j = partner[active]
        swap = k[i] > k[j]
        si, sj = i[swap], j[swap]
        k[si], k[sj] = k[sj].copy(), k[si].copy()
        v[si], v[sj] = v[sj].copy(), v[si].copy()
        step //= 2
    return k[:total], v[:total]


def radix_topk(
    keys: np.ndarray, values: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``m`` selection via an LSD byte-radix sort of float keys.

    The >512-candidate path of Sec. IV-B2 uses a CTA-wide radix sort; this
    is the same algorithm: non-negative float32 keys are order-preserving
    when reinterpreted as uint32, so four stable byte passes sort them.
    Negative keys (inner-product "distances") are offset into the
    non-negative range first.
    """
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values)
    if len(keys) == 0:
        return keys[:0], values[:0]
    finite = keys[np.isfinite(keys)]
    offset = float(finite.min()) if len(finite) and finite.min() < 0 else 0.0
    shifted = np.where(np.isfinite(keys), keys - offset, np.inf)
    bits = shifted.astype(np.float32).view(np.uint32).astype(np.uint64)

    order = np.arange(len(keys))
    for byte in range(4):  # LSD passes over the float32 bit pattern
        digits = (bits[order] >> np.uint64(8 * byte)) & np.uint64(0xFF)
        order = order[np.argsort(digits, kind="stable")]
    take = order[:m]
    return keys[take], values[take]


def sort_strategy(candidate_length: int) -> str:
    """Kernel choice of Sec. IV-B2: warp bitonic for <=512 candidates,
    CTA radix sort above."""
    return "warp_bitonic" if candidate_length <= 512 else "cta_radix"
