"""Adapters conforming every index type to :class:`repro.api.AnnIndex`.

The native classes keep their paper-figure signatures —
``HnswIndex.search(queries, k, ef=...)`` returning a
``(ids, dists, BeamCounters)`` tuple, ``CagraIndex.search`` returning a
:class:`repro.core.search.SearchResult`, and so on — because the bench
harness and figure scripts depend on them.  These thin adapters wrap
each native index behind the one unified surface:

* ``search(queries, k, *, filter_mask=None, config=None, mode="auto",
  on_stage=None, ...)`` returning :class:`repro.api.SearchResult` with
  int32 ids / float32 distances and trailing ``INDEX_MASK`` padding
  (``k`` beyond what the index can fill pads; it is not an error);
* a shared ``dim`` / ``metric`` / ``size`` / ``dataset`` /
  ``num_shards`` introspection surface;
* a per-stage ``on_stage(name, seconds, counters)`` hook threaded down
  to the wrapped implementation.

Every ``search`` rejects a malformed request with the typed errors of
:func:`repro.core.validation.validate_request` before any work (the
CAGRA adapters through the native index they forward to).

``config`` is a :class:`repro.core.config.SearchConfig` for every kind:
CAGRA consumes it natively, the beam baselines map ``itopk`` onto their
beam width (``ef`` for HNSW) so one recall/latency knob sweeps all
backends.  ``mode`` selects the CAGRA execution path — ``"reference"``
(:meth:`CagraIndex.search`), ``"fast"`` (:meth:`CagraIndex.search_fast`),
or ``"auto"`` (Table II dispatch: batch 1 → multi-CTA reference path,
coalesced batches → the vectorized fast path, exactly what
:class:`repro.serve.CagraServer` does; a lone query asking for more than
``itopk`` results also takes the fast path, which pads where the
reference kernel must refuse) — and is ignored by backends with a single
execution path.
"""

from __future__ import annotations

import numpy as np

from repro.api.instrumentation import stage_timer
from repro.api.results import SearchRequest, SearchResult, normalize_results
from repro.baselines.bruteforce import exact_search
from repro.core.config import SearchConfig
from repro.core.validation import validate_request

__all__ = [
    "AnnIndexAdapter",
    "BruteForceIndex",
    "CagraAnnIndex",
    "GannsAnnIndex",
    "GgnnAnnIndex",
    "HnswAnnIndex",
    "NssgAnnIndex",
    "ShardedCagraAnnIndex",
    "as_ann_index",
]

_MODES = ("auto", "reference", "fast")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _use_fast(mode: str, queries: np.ndarray, k: int, config: SearchConfig) -> bool:
    """``mode="auto"`` is the Table II batch-1 rule — a lone query goes to
    the multi-CTA reference path — unless ``k`` exceeds what that kernel's
    itopk list can return, which only the fast path answers (padded)."""
    return mode == "fast" or (
        mode == "auto" and (queries.shape[0] > 1 or k > config.itopk)
    )


class AnnIndexAdapter:
    """Base adapter: wraps one native index behind the unified surface.

    Attributes:
        kind: registry name of the wrapped index family (the
            ``--index-kind`` vocabulary).
    """

    kind = "base"

    def __init__(self, inner):
        self._inner = inner

    @property
    def inner(self):
        """The wrapped native index (for paper-figure code paths)."""
        return self._inner

    @property
    def dataset(self) -> np.ndarray:
        data = getattr(self._inner, "dataset", None)
        return data if data is not None else self._inner.data

    @property
    def dim(self) -> int:
        return int(self.dataset.shape[1])

    @property
    def size(self) -> int:
        return int(self.dataset.shape[0])

    @property
    def metric(self) -> str:
        return self._inner.metric

    @property
    def num_shards(self) -> int:
        return 1

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config: SearchConfig | None = None,
        mode: str = "auto",
        on_stage=None,
    ) -> SearchResult:
        raise NotImplementedError

    def search_request(self, request: SearchRequest, **kwargs) -> SearchResult:
        """Execute a :class:`SearchRequest` value object."""
        return self.search(
            request.queries, request.k, filter_mask=request.filter_mask, **kwargs
        )

    def save(self, path: str) -> None:
        """Persist through the kind registry (:mod:`repro.api.kinds`)."""
        from repro.api.kinds import save_index

        save_index(self, path)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kind={self.kind!r}, inner={self._inner!r})"


class CagraAnnIndex(AnnIndexAdapter):
    """:class:`repro.core.index.CagraIndex` behind the unified surface."""

    kind = "cagra"

    def __init__(self, inner, *, num_sms: int = 108):
        super().__init__(inner)
        self._num_sms = num_sms

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config: SearchConfig | None = None,
        mode: str = "auto",
        on_stage=None,
    ) -> SearchResult:
        _check_mode(mode)
        queries = np.atleast_2d(np.asarray(queries))
        config = config or SearchConfig()
        if _use_fast(mode, queries, k, config):
            raw = self._inner.search_fast(
                queries, k, config=config, filter_mask=filter_mask, on_stage=on_stage
            )
        else:
            if mode == "auto":
                # Table II batch-1 rule: one query spread over many CTAs.
                config = config.with_overrides(algo="multi_cta")
            raw = self._inner.search(
                queries,
                k,
                config=config,
                num_sms=self._num_sms,
                filter_mask=filter_mask,
                on_stage=on_stage,
            )
        ids, dists = normalize_results(raw.indices, raw.distances)
        return SearchResult(indices=ids, distances=dists, counters=raw.report.as_dict())


class ShardedCagraAnnIndex(AnnIndexAdapter):
    """:class:`~repro.core.sharding.ShardedCagraIndex` behind the surface.

    The failure policy (``on_shard_failure`` / ``min_shard_quorum``) is
    fixed at wrap time — it is deployment configuration, not a per-query
    decision — while ``skip_shards`` stays per call because it tracks
    live breaker state.
    """

    kind = "sharded-cagra"

    def __init__(
        self,
        inner,
        *,
        num_sms: int = 108,
        on_shard_failure: str = "raise",
        min_shard_quorum: int = 1,
    ):
        super().__init__(inner)
        self._num_sms = num_sms
        self._on_shard_failure = on_shard_failure
        self._min_shard_quorum = min_shard_quorum

    @property
    def num_shards(self) -> int:
        return int(self._inner.num_shards)

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config: SearchConfig | None = None,
        mode: str = "auto",
        on_stage=None,
        skip_shards=(),
    ) -> SearchResult:
        _check_mode(mode)
        queries = np.atleast_2d(np.asarray(queries))
        config = config or SearchConfig()
        policy = dict(
            on_shard_failure=self._on_shard_failure,
            min_shard_quorum=self._min_shard_quorum,
            skip_shards=skip_shards,
            on_stage=on_stage,
        )
        if _use_fast(mode, queries, k, config):
            raw = self._inner.search_fast(
                queries, k, config=config, filter_mask=filter_mask, **policy
            )
        else:
            if mode == "auto":
                config = config.with_overrides(algo="multi_cta")
            raw = self._inner.search(
                queries,
                k,
                config=config,
                num_sms=self._num_sms,
                filter_mask=filter_mask,
                **policy,
            )
        ids, dists = normalize_results(raw.indices, raw.distances)
        return SearchResult(
            indices=ids,
            distances=dists,
            counters=dict(raw.counters),
            degraded=raw.degraded,
            failed_shards=list(raw.failed_shards),
            skipped_shards=list(raw.skipped_shards),
            shard_reports=list(raw.shard_reports),
            shard_seconds=list(raw.shard_seconds),
        )


class _BeamAnnIndex(AnnIndexAdapter):
    """Shared machinery for the beam-search baselines.

    ``config.itopk`` maps onto the beam width (never below ``k``).
    ``filter_mask`` is best-effort for graph baselines: the search
    overfetches (``max(4k, beam)`` capped at N), drops excluded rows,
    and pads — graph traversal itself is unaware of the mask, unlike
    CAGRA's native pre-filtered search.
    """

    def __init__(self, inner, *, seed: int = 0):
        super().__init__(inner)
        self._seed = seed

    def _raw_search(
        self, queries: np.ndarray, k: int, beam: int
    ) -> tuple[np.ndarray, np.ndarray, object]:
        """Subclass hook: run the native batched search."""
        raise NotImplementedError

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config: SearchConfig | None = None,
        mode: str = "auto",
        on_stage=None,
    ) -> SearchResult:
        _check_mode(mode)  # beam baselines have one execution path
        queries, mask = validate_request(
            queries, k, self.dim, size=self.size, filter_mask=filter_mask
        )
        k_search = min(int(k), self.size)
        if mask is not None:
            k_search = min(self.size, max(4 * int(k), k_search))
        beam = max(config.itopk if config is not None else 64, k_search)
        with stage_timer(on_stage, f"baseline.{self.kind}.search") as stage:
            ids, dists, counters = self._raw_search(queries, k_search, beam)
            stage.counters = self._counters(counters)
        if mask is not None:
            clipped = np.clip(ids.astype(np.int64), 0, self.size - 1)
            dists = np.where(mask[clipped], dists, np.inf)
        out_ids, out_dists = normalize_results(ids, dists, k)
        return SearchResult(
            indices=out_ids, distances=out_dists, counters=self._counters(counters)
        )

    def _counters(self, counters) -> dict:
        return {
            "algo": self.kind,
            "distance_computations": int(counters.distance_computations),
            "hops": int(counters.hops),
            "queries": int(counters.queries),
        }


class HnswAnnIndex(_BeamAnnIndex):
    """:class:`repro.baselines.HnswIndex`; ``config.itopk`` maps to ``ef``."""

    kind = "hnsw"

    def _raw_search(self, queries, k, beam):
        return self._inner.search(queries, k, ef=beam)


class GgnnAnnIndex(_BeamAnnIndex):
    """:class:`repro.baselines.GgnnIndex` (deterministic per query)."""

    kind = "ggnn"

    def _raw_search(self, queries, k, beam):
        return self._inner.search(queries, k, beam_width=beam, seed=self._seed)


class GannsAnnIndex(_BeamAnnIndex):
    """:class:`repro.baselines.GannsIndex`."""

    kind = "ganns"

    def _raw_search(self, queries, k, beam):
        return self._inner.search(queries, k, beam_width=beam, seed=self._seed)


class NssgAnnIndex(_BeamAnnIndex):
    """:class:`repro.baselines.NssgIndex`."""

    kind = "nssg"

    def _raw_search(self, queries, k, beam):
        return self._inner.search(queries, k, beam_width=beam, seed=self._seed)


class BruteForceIndex(AnnIndexAdapter):
    """Exact search as a first-class :class:`AnnIndex` (the recall oracle).

    Unlike the graph baselines it supports ``filter_mask`` exactly: the
    scan simply restricts to the allowed rows.
    """

    kind = "bruteforce"

    def __init__(self, dataset: np.ndarray, metric: str = "sqeuclidean"):
        dataset = np.asarray(dataset)
        if dataset.ndim != 2 or dataset.shape[0] < 1:
            raise ValueError("dataset must be (N >= 1, dim)")
        super().__init__(None)
        self._dataset = dataset
        self._metric = metric

    @property
    def inner(self):
        return self

    @property
    def dataset(self) -> np.ndarray:
        return self._dataset

    @property
    def metric(self) -> str:
        return self._metric

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        *,
        filter_mask: np.ndarray | None = None,
        config: SearchConfig | None = None,
        mode: str = "auto",
        on_stage=None,
    ) -> SearchResult:
        _check_mode(mode)
        queries, mask = validate_request(
            queries, k, self.dim, size=self.size, filter_mask=filter_mask
        )
        with stage_timer(on_stage, "bruteforce.search") as stage:
            rows = self._dataset
            if mask is not None:
                allowed = np.flatnonzero(mask)
                rows = rows[allowed]
            ids, dists = exact_search(
                rows, queries, min(int(k), rows.shape[0]), metric=self._metric
            )
            if mask is not None:
                ids = allowed[ids.astype(np.int64)]
            counters = {
                "algo": "bruteforce",
                "distance_computations": int(queries.shape[0] * rows.shape[0]),
            }
            stage.counters = counters
        out_ids, out_dists = normalize_results(ids, dists, k)
        return SearchResult(indices=out_ids, distances=out_dists, counters=counters)

    def __repr__(self) -> str:
        return (
            f"BruteForceIndex(size={self.size}, dim={self.dim}, "
            f"metric={self._metric!r})"
        )


def as_ann_index(
    index,
    *,
    num_sms: int = 108,
    on_shard_failure: str = "raise",
    min_shard_quorum: int = 1,
    seed: int = 0,
):
    """Wrap any supported index behind the :class:`AnnIndex` protocol.

    Idempotent: an adapter is re-wrapped from its ``inner`` so the given
    policies apply; an already-conforming foreign object passes through.

    Args:
        index: a native index of any kind in
            :data:`repro.api.kinds.KINDS`, an existing adapter, or any
            object satisfying the protocol.
        num_sms: SM count forwarded to CAGRA's multi-CTA reference path.
        on_shard_failure: sharded-index failure policy (``"raise"`` /
            ``"partial"``).
        min_shard_quorum: minimum shards that must answer for a degraded
            result.
        seed: RNG seed for the randomized baseline searches (GANNS/NSSG
            seed sampling).
    """
    from repro.api.kinds import KINDS, kind_of  # kinds imports this module

    if isinstance(index, AnnIndexAdapter):
        if index.inner is index:  # self-contained (e.g. BruteForceIndex)
            return index
        index = index.inner
    kind = kind_of(index)
    if kind is not None:
        policies = dict(
            num_sms=num_sms,
            on_shard_failure=on_shard_failure,
            min_shard_quorum=min_shard_quorum,
            seed=seed,
        )
        return kind.adapter(index, **{name: policies[name] for name in kind.policies})
    from repro.api.protocol import AnnIndex

    if isinstance(index, AnnIndex):
        return index
    raise TypeError(
        f"cannot adapt {type(index).__name__} to AnnIndex; supported kinds: "
        f"{', '.join(KINDS)}"
    )
