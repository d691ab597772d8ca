"""Unified search request/result value objects for every index kind.

Every :class:`repro.api.AnnIndex` search returns the same
:class:`SearchResult` shape regardless of backend, which is what lets
:class:`repro.serve.CagraServer`, the CLI, and the bench harness treat
CAGRA, its sharded variant, and all four paper baselines uniformly.

The result contract on the unified surface:

* ``indices`` is ``(batch, k)`` **int32** (``INDEX_MASK = 2**31 - 1``
  fits exactly, so uint32-producing backends convert losslessly);
* ``distances`` is ``(batch, k)`` **float32**, sorted ascending;
* unfilled slots are ``(INDEX_MASK, +inf)`` and appear only as
  *trailing* padding — a finite entry never follows a sentinel;
* ``counters`` always includes ``"algo"`` and
  ``"distance_computations"``.

Legacy producers (:meth:`ShardedCagraIndex.search` called directly, not
through an adapter) reuse this class but keep their historical native
dtypes (uint32 ids, float64 distances) for bitwise compatibility; the
int32/float32 guarantee holds for everything obtained through
:func:`repro.api.as_ann_index`, :func:`repro.api.build_index`, or
:func:`repro.api.load_ann_index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import INDEX_MASK

__all__ = ["SearchRequest", "SearchResult", "normalize_results"]


@dataclass(frozen=True)
class SearchRequest:
    """One batched search call as a value object.

    Attributes:
        queries: ``(batch, dim)`` query vectors (a single ``(dim,)``
            vector is promoted to a batch of one).
        k: neighbors requested per query.
        filter_mask: optional length-N bool mask restricting results to
            dataset rows whose entry is True.
    """

    queries: np.ndarray
    k: int = 10
    filter_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", np.atleast_2d(np.asarray(self.queries)))
        if self.queries.ndim != 2:
            raise ValueError("queries must be at most 2-D")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.filter_mask is not None:
            object.__setattr__(
                self, "filter_mask", np.asarray(self.filter_mask, dtype=bool)
            )

    @property
    def batch(self) -> int:
        return int(self.queries.shape[0])


@dataclass(frozen=True)
class SearchResult:
    """Merged/normalized output of one batched ANN search.

    The shard metadata fields are empty/default for monolithic indexes
    and populated by sharded searches, so callers never branch on result
    type.

    Attributes:
        indices: ``(batch, k)`` neighbor ids; ``INDEX_MASK`` marks
            unfilled slots, only in trailing positions (int32 on the
            unified adapter surface — see the module docstring).
        distances: matching distances, ascending; ``inf`` on unfilled
            slots (float32 on the unified surface).
        counters: flat operation-counter mapping for the whole batch;
            always carries ``"algo"`` and ``"distance_computations"``.
        degraded: True when the answer covers only part of the index
            (some shards failed or were skipped).
        failed_shards: shard numbers whose search failed after retries.
        skipped_shards: shards excluded up front by the caller (e.g.
            open circuit breakers).
        shard_reports: one ``CostReport`` per shard (sharded searches
            only; the cost model prices each on its own GPU).
        shard_seconds: measured per-shard wall seconds (sharded only).
    """

    indices: np.ndarray
    distances: np.ndarray
    counters: dict = field(default_factory=dict)
    degraded: bool = False
    failed_shards: list[int] = field(default_factory=list)
    skipped_shards: list[int] = field(default_factory=list)
    shard_reports: list = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)

    @property
    def batch(self) -> int:
        return int(self.indices.shape[0])

    @property
    def k(self) -> int:
        return int(self.indices.shape[1])


def normalize_results(
    indices: np.ndarray, distances: np.ndarray, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize raw backend output to the unified result contract.

    Casts ids to int32 and distances to float32, rewrites every unfilled
    slot (sentinel id or non-finite distance) to ``(INDEX_MASK, +inf)``,
    and compacts each row so the padding is strictly trailing.  The
    relative order of filled entries is preserved (stable), so
    already-sorted backends stay sorted and filled CAGRA/sharded outputs
    pass through bit-identical in value.  With ``k`` the output is exactly ``k`` columns wide: the
    compacted rows are cut to ``k`` or, when the backend had fewer
    candidates than that (``k`` above the index size), padded with
    trailing sentinels — asking for more than an index holds is answered,
    not refused.
    """
    ids = np.atleast_2d(np.asarray(indices)).astype(np.int64)
    dists = np.atleast_2d(np.asarray(distances)).astype(np.float64)
    if ids.shape != dists.shape:
        raise ValueError("indices and distances must have the same shape")
    unfilled = (ids == int(INDEX_MASK)) | ~np.isfinite(dists)
    # Stable sort on the unfilled flag alone: filled entries keep their
    # order, sentinels sink to the tail.
    order = np.argsort(unfilled, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    unfilled = np.take_along_axis(unfilled, order, axis=1)
    out_ids = np.where(unfilled, np.int64(int(INDEX_MASK)), ids).astype(np.int32)
    out_dists = np.where(unfilled, np.inf, dists).astype(np.float32)
    if k is not None and out_ids.shape[1] != k:
        pad = ((0, 0), (0, max(0, int(k) - out_ids.shape[1])))
        out_ids = np.pad(out_ids[:, :k], pad, constant_values=int(INDEX_MASK))
        out_dists = np.pad(out_dists[:, :k], pad, constant_values=np.inf)
    return out_ids, out_dists
