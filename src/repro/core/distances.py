"""Distance kernels used throughout the reproduction.

All kernels are batched NumPy operations.  Internally the library works with
*L2 squared* distances (monotone with the L2 norm, so top-k results are
identical) unless the metric is inner product or cosine.

The paper stores datasets either in FP32 or FP16 (Sec. V-C: "we can gain
higher throughput using half-precision (FP16) for the vector data type").
We emulate FP16 storage by rounding the dataset to ``float16`` and widening
to ``float32`` for arithmetic, which matches what the CUDA kernels do with
``half2`` loads and FP32 accumulation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "METRICS",
    "pairwise_distances",
    "distances_to_query",
    "gathered_distances",
    "paired_dots",
    "unit_directions",
    "normalize_rows",
    "as_storage_dtype",
    "distance_function",
]

#: Metric names accepted by the public API.
METRICS = ("sqeuclidean", "inner_product", "cosine")


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Return ``data`` with every row scaled to unit L2 norm.

    Zero rows are left untouched (they would otherwise become NaN).
    """
    norms = np.linalg.norm(data, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return data / norms


def as_storage_dtype(data: np.ndarray, dtype: str = "float32") -> np.ndarray:
    """Convert a dataset to its storage dtype (``float32`` or ``float16``).

    FP16 storage emulates the paper's half-precision mode: values are
    quantized to half precision but all arithmetic later happens in FP32.
    """
    if dtype not in ("float32", "float16"):
        raise ValueError(f"storage dtype must be float32 or float16, got {dtype!r}")
    return np.ascontiguousarray(data, dtype=dtype)


def _compute_dtype(data: np.ndarray) -> np.dtype:
    """Arithmetic dtype for a stored dataset (always at least float32)."""
    return np.dtype(np.float64) if data.dtype == np.float64 else np.dtype(np.float32)


def pairwise_distances(
    a: np.ndarray, b: np.ndarray, metric: str = "sqeuclidean"
) -> np.ndarray:
    """Dense ``(len(a), len(b))`` distance matrix between two row sets.

    For ``inner_product`` and ``cosine`` the returned values are *negated*
    similarities so that smaller is always better, uniformly with L2².
    """
    _check_metric(metric)
    dtype = _compute_dtype(a)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if metric == "cosine":
        a = normalize_rows(a)
        b = normalize_rows(b)
    if metric in ("inner_product", "cosine"):
        return -(a @ b.T)
    # ||a - b||^2 = ||a||^2 - 2 a.b + ||b||^2, clipped to guard against
    # negative values from floating point cancellation.
    sq_a = np.einsum("ij,ij->i", a, a)[:, None]
    sq_b = np.einsum("ij,ij->i", b, b)[None, :]
    d = sq_a - 2.0 * (a @ b.T) + sq_b
    np.maximum(d, 0.0, out=d)
    return d


def distances_to_query(
    data: np.ndarray,
    query: np.ndarray,
    indices: np.ndarray | None = None,
    metric: str = "sqeuclidean",
) -> np.ndarray:
    """Distances from one query vector to ``data[indices]`` (or all rows),
    bit for bit what :func:`gathered_distances` gives the same pairs, so a
    query scores the same alone or in a batch.  Squared L2 keeps its own
    (faster, same-reduction) kernel."""
    _check_metric(metric)
    if metric != "sqeuclidean":
        ids = np.arange(len(data)) if indices is None else np.asarray(indices)
        return gathered_distances(data, np.asarray(query)[None], ids[None], metric)[0]
    dtype = _compute_dtype(data)
    rows = data if indices is None else data[indices]
    rows = np.asarray(rows, dtype=dtype)
    q = np.asarray(query, dtype=dtype)
    diff = rows - q
    return np.einsum("ij,ij->i", diff, diff)


#: Bytes of gathered rows one block of :func:`gathered_distances` may hold:
#: the best of 256 KiB / 512 KiB / 1 MiB on the 3000 x 96 build and on the
#: batch-512 search (EXPERIMENTS.md, "Cache-blocked construction").
_GATHER_BLOCK_BYTES = 256 << 10


def gathered_distances(
    data: np.ndarray,
    queries: np.ndarray,
    indices: np.ndarray,
    metric: str = "sqeuclidean",
    query_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise gathered distances.

    ``indices`` has shape ``(n_rows, width)``; the result ``[i, j]`` is the
    distance between row ``i``'s query and ``data[indices[i, j]]``.  Row
    ``i``'s query is ``queries[i]``, or ``queries[query_rows[i]]`` when
    ``query_rows`` is given — the flat (query, node) pairs of the CAGRA
    first-visit distance step (step ③) name their queries that way instead
    of materializing one query copy per pair.

    Rows go through in blocks whose ``(rows, width, dim)`` gather fits
    :data:`_GATHER_BLOCK_BYTES`, so it is reduced while still in cache.
    Every reduction is per (row, column) pair: neither the block size nor
    the shape the pairs arrive in can change a bit of the result.
    """
    _check_metric(metric)
    dtype = _compute_dtype(data)
    indices = np.asarray(indices)
    queries = np.asarray(queries, dtype=dtype)
    out = np.empty(indices.shape, dtype=dtype)
    row_bytes = indices.shape[1] * data.shape[1] * dtype.itemsize
    block = max(1, _GATHER_BLOCK_BYTES // max(1, row_bytes))
    for start in range(0, len(out), block):
        rows = slice(start, start + block)
        # ``take`` (faster than a fancy index at whole rows) and any widening
        # copy: ``gathered`` is private to this block, updated in place.
        gathered = data.take(indices[rows], axis=0).astype(dtype, copy=False)  # (b, w, dim)
        q = queries[rows] if query_rows is None else queries.take(query_rows[rows], axis=0)
        q = q[:, None, :]  # (b, 1, dim)
        if metric == "cosine":
            norms = np.linalg.norm(gathered, axis=2, keepdims=True)
            norms[norms == 0.0] = 1.0
            gathered /= norms
            qn = np.linalg.norm(q, axis=2, keepdims=True)
            qn[qn == 0.0] = 1.0
            q = q / qn
        if metric == "sqeuclidean":
            gathered -= q
            np.einsum("qwd,qwd->qw", gathered, gathered, out=out[rows])
        else:
            np.einsum("qwd,qod->qw", gathered, q, out=out[rows])
    return out if metric == "sqeuclidean" else np.negative(out, out=out)


def paired_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a[i] @ b[i]``, each the BLAS dot a lone ``@`` takes (bitwise)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def unit_directions(data: np.ndarray, origins, indices) -> tuple[np.ndarray, np.ndarray]:
    """Float64 unit vectors from ``data[origins[i]]`` to ``data[indices[i, j]]``
    (bitwise ``(x - o) / np.linalg.norm(x - o)``) and the zero-length mask."""
    directions = data[indices].astype(np.float64) - data[origins].astype(np.float64)[:, None, :]
    norms = np.sqrt(paired_dots(directions, directions))
    directions /= np.where(norms == 0.0, 1.0, norms)[..., None]
    return directions, norms == 0.0


def distance_function(metric: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Scalar two-vector distance, mostly for tests and reference code."""
    _check_metric(metric)

    def _sqeuclidean(x: np.ndarray, y: np.ndarray) -> float:
        d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
        return float(d @ d)

    def _inner_product(x: np.ndarray, y: np.ndarray) -> float:
        return -float(np.asarray(x, dtype=np.float64) @ np.asarray(y, dtype=np.float64))

    def _cosine(x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            return 0.0
        return -float(x @ y) / (nx * ny)

    return {
        "sqeuclidean": _sqeuclidean,
        "inner_product": _inner_product,
        "cosine": _cosine,
    }[metric]
