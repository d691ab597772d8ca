"""Stateless counter-based random draws for the search's random seeding.

Draw ``j`` of query ``q``, worker ``w``, step ``s`` is ``h(seed, key(q), w,
s, j)``: a splitmix64 finaliser over that counter, bounded to ``[0, n)`` by
multiply-shift.  ``key(q)`` hashes the query's float32 bytes, so a draw —
and with it the answer — depends on the index, the query and the config
only: never on the query's batch position, its chunk, or its batch mates.
The CUDA kernels draw from stateless per-query Philox counters (Salmon et
al., SC'11) for the same reason.
"""

from __future__ import annotations

import numpy as np

__all__ = ["counter_draws", "query_keys"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_HALF = np.uint64(32)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser: a bijection on uint64 with full avalanche."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def query_keys(queries: np.ndarray) -> np.ndarray:
    """One uint64 key per row of a ``(batch, dim)`` array, hashed from the
    row's float32 bytes (word ``c`` is tagged with its column first)."""
    words = np.ascontiguousarray(queries, dtype=np.float32).view(np.uint32)
    tagged = words.astype(np.uint64)
    tagged |= np.arange(words.shape[1], dtype=np.uint64) << _HALF
    return _mix(_mix(tagged).sum(axis=1, dtype=np.uint64))


def counter_draws(
    seed: int, keys, worker: int, step: int, width: int, n: int
) -> np.ndarray:
    """``(len(keys), width)`` uint32 draws in ``[0, n)``.

    Row ``i``, column ``j`` is ``h(seed, keys[i], worker, step, j)``; every
    draw is a pure function of its counter, so rows can be drawn in any
    grouping and order.
    """
    stream = np.zeros(1, dtype=np.uint64)
    for word in (seed, worker, step):
        stream = _mix((stream + _GOLDEN) ^ np.uint64(word))
    base = _mix(np.asarray(keys, dtype=np.uint64) ^ stream)
    lanes = np.arange(1, width + 1, dtype=np.uint64) * _GOLDEN
    x = _mix(base[:, None] + lanes)
    return (((x >> _HALF) * np.uint64(n)) >> _HALF).astype(np.uint32)
