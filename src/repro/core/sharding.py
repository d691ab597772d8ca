"""Multi-GPU sharding (Sec. IV-C2 / V-E).

For datasets beyond one device's memory the paper recommends "a simple
multi-GPU sharding technique ... where each GPU is assigned to process
one sub-graph independently".  :class:`ShardedCagraIndex` implements it:

* the dataset is split round-robin into ``num_shards`` sub-datasets;
* each shard builds an independent CAGRA index (exactly GGNN's
  construction trick, which the paper cites for this);
* a search runs on every shard and the per-shard top-k lists are merged
  by distance, with ``INDEX_MASK`` unfilled slots masked out *before* the
  local→global id gather (an unfilled slot is a sentinel, not a local
  row) and propagated as trailing padding in the merged output.

Shard builds and searches are genuinely concurrent: both fan out through
:mod:`repro.parallel`'s :class:`~repro.parallel.executor.ShardExecutor`
(a process pool by default on multi-core POSIX hosts, thread/serial
elsewhere), the software analogue of "one GPU per sub-graph".  The pool's
workers get the dataset (build) or this index's shard list (search) once,
when they start, and each shard search runs on that shard's own cached
engine.  Results are bitwise identical to the serial loop on every
backend — see ``docs/parallel.md``.

Because every shard search is a full CAGRA search over a subset, recall
is at least that of a single index of the same total size searched with
the same per-shard budget; wall time is the slowest shard plus a merge.

Failure semantics (``docs/resilience.md``): each shard search is an
independent :class:`~repro.parallel.executor.TaskOutcome`, so one shard
dying (worker crash, watchdog timeout, retries exhausted) need not sink
the whole query.  ``on_shard_failure="raise"`` (default) re-raises the
first shard error; ``"partial"`` merges the survivors — failed shards
contribute only sentinel slots — and reports ``degraded`` /
``failed_shards`` metadata, as long as at least ``min_shard_quorum``
shards answered (otherwise :class:`ShardQuorumError`).
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.api.results import SearchResult as AnnSearchResult
from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.graph import INDEX_MASK
from repro.core.index import CagraIndex
from repro.core.search import CostReport, SearchResult
from repro.core.validation import validate_request
from repro.parallel.config import ParallelConfig

__all__ = ["ShardQuorumError", "ShardedCagraIndex"]

#: Accepted ``on_shard_failure`` policies.
_FAILURE_MODES = ("raise", "partial")


class ShardQuorumError(RuntimeError):
    """Too few shards answered to satisfy ``min_shard_quorum``.

    Raised even under ``on_shard_failure="partial"``: a degraded answer is
    only useful while most of the index is still reachable, and the quorum
    knob is where the caller draws that line.
    """


class _ShardRuntime:
    """The worker pool owned by one sharded index.

    Kept separate from the index so a ``weakref.finalize`` can release
    the worker processes when the index is garbage collected without
    resurrecting it.
    """

    def __init__(self):
        self.executor = None

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


class ShardedCagraIndex:
    """CAGRA index sharded across simulated GPUs (worker processes)."""

    def __init__(
        self,
        shards: list[CagraIndex],
        assignments: list[np.ndarray],
        parallel: ParallelConfig | None = None,
    ):
        if not shards:
            raise ValueError("need at least one shard")
        if len(shards) != len(assignments):
            raise ValueError("one assignment array per shard required")
        self.shards = shards
        #: assignments[s][i] = global id of shard s's local row i.
        self.assignments = [np.asarray(a, dtype=np.int64) for a in assignments]
        for shard, ids in zip(self.shards, self.assignments):
            if shard.size != len(ids):
                raise ValueError("assignment length must match shard size")
        #: Default execution policy for this index's searches.
        self.parallel = parallel or ParallelConfig()
        self._runtime = _ShardRuntime()
        self._finalizer = weakref.finalize(self, _ShardRuntime.close, self._runtime)

    # ------------------------------------------------------------------
    # execution plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (idempotent).

        Also runs automatically when the index is garbage collected or
        the interpreter exits; call it explicitly in long-lived processes
        that churn through many indexes.
        """
        self._runtime.close()

    def _executor(self, parallel: ParallelConfig):
        from repro.parallel.executor import ShardExecutor

        if parallel is not self.parallel:
            # Per-call override: a throwaway executor, closed by caller.
            return ShardExecutor.from_config(
                parallel, self.num_shards, state=self.shards
            ), True
        if self._runtime.executor is None:
            self._runtime.executor = ShardExecutor.from_config(
                parallel, self.num_shards, state=self.shards
            )
        return self._runtime.executor, False

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: np.ndarray,
        num_shards: int,
        config: GraphBuildConfig | None = None,
        dataset_dtype: str = "float32",
        parallel: ParallelConfig | None = None,
    ) -> "ShardedCagraIndex":
        """Split ``dataset`` round-robin and build one index per shard.

        Shard builds run concurrently on the :class:`ParallelConfig`'s
        backend (process pool by default on multi-core POSIX hosts); each
        shard's build is seeded by shard number, so the resulting graphs
        are bitwise identical to a serial build.
        """
        from repro.parallel.shards import build_shards, plan_shards

        dataset = np.asarray(dataset)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        n = dataset.shape[0]
        if n < 2 * num_shards:
            raise ValueError("each shard needs at least 2 vectors")
        config = config or GraphBuildConfig()
        parallel = parallel or ParallelConfig()
        plans = plan_shards(n, num_shards, config)
        shards = build_shards(dataset, plans, dataset_dtype, parallel)
        return cls(shards, [plan.ids for plan in plans], parallel=parallel)

    # ------------------------------------------------------------------
    def _shard_filter_masks(
        self, filter_mask: np.ndarray | None
    ) -> tuple[list[np.ndarray | None], list[bool]]:
        """Slice a (validated) global filter mask per shard; flag
        fully-excluded shards."""
        if filter_mask is None:
            return [None] * self.num_shards, [False] * self.num_shards
        masks: list[np.ndarray | None] = []
        empty: list[bool] = []
        for ids in self.assignments:
            local = filter_mask[ids]
            if local.all():
                masks.append(None)  # no-op mask: skip the filtered code path
                empty.append(False)
            elif local.any():
                masks.append(local)
                empty.append(False)
            else:
                # Every row of this shard is excluded — searching it would
                # be rejected outright, so it contributes nothing instead.
                masks.append(None)
                empty.append(True)
        return masks, empty

    @staticmethod
    def _empty_result(batch: int, k: int, algo: str) -> SearchResult:
        return SearchResult(
            indices=np.full((batch, k), INDEX_MASK, dtype=np.uint32),
            distances=np.full((batch, k), np.inf),
            report=CostReport(algo=algo, batch_size=batch, kernel_launches=0),
        )

    def _run_shard_searches(
        self,
        queries: np.ndarray,
        k: int,
        config: SearchConfig | None,
        num_sms: int,
        fast: bool,
        filter_mask: np.ndarray | None,
        parallel: ParallelConfig | None,
        on_shard_failure: str,
        min_shard_quorum: int,
        skip_shards,
    ) -> tuple[list[tuple[SearchResult, float]], list[int], list[int]]:
        """Fan a search out and fold failures per ``on_shard_failure``.

        Returns ``(per_shard, failed, skipped)`` where ``per_shard`` holds
        one ``(SearchResult, seconds)`` per shard — failed, skipped, and
        filter-excluded shards contribute an all-sentinel result that the
        merge sorts to the tail.
        """
        from repro.parallel.shards import search_shards
        from repro.resilience import resolve_fault_plan

        queries, filter_mask = validate_request(
            queries, k, self.dim, size=self.size, filter_mask=filter_mask
        )
        if on_shard_failure not in _FAILURE_MODES:
            raise ValueError(
                f"on_shard_failure must be one of {_FAILURE_MODES}, "
                f"got {on_shard_failure!r}"
            )
        if min_shard_quorum < 1:
            raise ValueError("min_shard_quorum must be >= 1")
        skipped = sorted(set(int(s) for s in skip_shards))
        for s in skipped:
            if not 0 <= s < self.num_shards:
                raise ValueError(f"skip_shards entry {s} out of range")
        if len(skipped) == self.num_shards:
            raise ShardQuorumError(
                f"all {self.num_shards} shard(s) skipped; nothing to search"
            )
        active = parallel or self.parallel
        masks, excluded = self._shard_filter_masks(filter_mask)
        live = [
            s
            for s in range(self.num_shards)
            if not excluded[s] and s not in skipped
        ]
        executor, throwaway = self._executor(active)
        try:
            outcomes = search_shards(
                executor,
                live,
                queries,
                k,
                config,
                num_sms,
                fast=fast,
                filter_masks=[masks[s] for s in live],
                fault=resolve_fault_plan(active.fault_plan),
            )
        finally:
            if throwaway:
                executor.close()
        failed: list[int] = []
        by_shard: dict[int, tuple[SearchResult, float]] = {}
        for s, outcome in zip(live, outcomes):
            if outcome.ok:
                by_shard[s] = outcome.value
            elif on_shard_failure == "raise":
                raise outcome.error
            else:
                failed.append(s)
        # Filter exclusion alone is never a quorum problem (the caller
        # asked for it); failures and breaker skips are.
        if (failed or skipped) and len(by_shard) < min_shard_quorum:
            raise ShardQuorumError(
                f"only {len(by_shard)} of {self.num_shards} shard(s) "
                f"answered (failed={failed}, skipped={skipped}); "
                f"min_shard_quorum={min_shard_quorum}"
            )
        batch = queries.shape[0]
        algo = next(
            (r.report.algo for r, _ in by_shard.values()), "single_cta"
        )
        per_shard = [
            by_shard.get(s, (self._empty_result(batch, k, algo), 0.0))
            for s in range(self.num_shards)
        ]
        return per_shard, failed, skipped

    def _merge(
        self,
        per_shard: list[tuple[SearchResult, float]],
        k: int,
        failed: list[int] | None = None,
        skipped: list[int] | None = None,
    ) -> AnnSearchResult:
        """Merge per-shard top-k into a global top-k ``repro.api.SearchResult``.

        ``INDEX_MASK`` entries and non-finite distances mark unfilled or
        filtered-out slots (see :class:`~repro.core.search.SearchResult`);
        gathering them through the assignment array would index a
        shard-sized array with id ``2**31 - 1``, so they are masked to
        ``(INDEX_MASK, +inf)`` first and therefore sort to the tail of
        the merged list.
        """
        id_blocks = []
        dist_blocks = []
        for s, (result, _seconds) in enumerate(per_shard):
            unfilled = (result.indices == INDEX_MASK) | ~np.isfinite(
                result.distances
            )
            local = np.where(unfilled, 0, result.indices.astype(np.int64))
            ids = self.assignments[s][local].astype(np.uint32)
            id_blocks.append(np.where(unfilled, INDEX_MASK, ids))
            dist_blocks.append(np.where(unfilled, np.inf, result.distances))
        all_ids = np.concatenate(id_blocks, axis=1)
        all_dists = np.concatenate(dist_blocks, axis=1)
        order = np.argsort(all_dists, axis=1, kind="stable")[:, :k]
        failed = list(failed or [])
        skipped = list(skipped or [])
        reports = [result.report for result, _ in per_shard]
        counters: dict = {}
        for report in reports:
            for key, value in report.as_dict().items():
                if isinstance(value, (bool, str)):
                    continue
                counters[key] = counters.get(key, 0) + value
        # Whole-index identity counters, not per-shard sums.
        counters["algo"] = reports[0].algo
        counters["batch_size"] = reports[0].batch_size
        return AnnSearchResult(
            indices=np.take_along_axis(all_ids, order, axis=1),
            distances=np.take_along_axis(all_dists, order, axis=1),
            counters=counters,
            shard_reports=reports,
            shard_seconds=[seconds for _, seconds in per_shard],
            degraded=bool(failed or skipped),
            failed_shards=failed,
            skipped_shards=skipped,
        )

    def _timed_merge(
        self,
        per_shard: list[tuple[SearchResult, float]],
        k: int,
        failed: list[int],
        skipped: list[int],
        on_stage,
    ) -> AnnSearchResult:
        """:meth:`_merge` plus the unified instrumentation events."""
        if on_stage is None:
            return self._merge(per_shard, k, failed, skipped)
        dead = set(failed) | set(skipped)
        for s, (result, seconds) in enumerate(per_shard):
            if s not in dead:
                on_stage(f"shard.{s}.search", seconds, result.report.as_dict())
        started = time.perf_counter()
        merged = self._merge(per_shard, k, failed, skipped)
        on_stage(
            "shard.merge",
            time.perf_counter() - started,
            {"num_shards": self.num_shards, "failed": len(failed),
             "skipped": len(skipped)},
        )
        return merged

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        config: SearchConfig | None = None,
        num_sms: int = 108,
        filter_mask: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
        on_shard_failure: str = "raise",
        min_shard_quorum: int = 1,
        skip_shards=(),
        on_stage=None,
    ) -> AnnSearchResult:
        """Search every shard and merge per-query top-k by distance.

        Shard searches run concurrently on the index's worker pool
        (override per call with ``parallel``).  ``filter_mask`` is a
        *global* length-N bool mask; shards whose rows are all excluded
        are skipped.  Unfilled slots surface as trailing ``INDEX_MASK`` /
        ``inf`` entries, never as bogus global ids.

        ``on_shard_failure="partial"`` merges surviving shards when some
        fail (after the executor's retries), reporting them in
        ``failed_shards`` and setting ``degraded``; fewer than
        ``min_shard_quorum`` survivors raises :class:`ShardQuorumError`.
        ``skip_shards`` excludes shards up front (a serving layer's open
        circuit breakers) — they count against the quorum too.
        ``on_stage(name, seconds, counters)`` receives one
        ``shard.<s>.search`` event per answering shard plus a final
        ``shard.merge`` event (see :mod:`repro.api`).
        """
        per_shard, failed, skipped = self._run_shard_searches(
            queries, k, config, num_sms, False, filter_mask, parallel,
            on_shard_failure, min_shard_quorum, skip_shards,
        )
        return self._timed_merge(per_shard, k, failed, skipped, on_stage)

    def search_fast(
        self,
        queries: np.ndarray,
        k: int = 10,
        config: SearchConfig | None = None,
        filter_mask: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
        on_shard_failure: str = "raise",
        min_shard_quorum: int = 1,
        skip_shards=(),
        on_stage=None,
    ) -> AnnSearchResult:
        """Vectorized per-shard :meth:`CagraIndex.search_fast` + merge.

        The batch-throughput path (and what :class:`repro.serve.CagraServer`
        uses for coalesced batches when serving a sharded index).  Failure
        handling matches :meth:`search` (``on_shard_failure`` /
        ``min_shard_quorum`` / ``skip_shards``), as does the ``on_stage``
        instrumentation hook.
        """
        per_shard, failed, skipped = self._run_shard_searches(
            queries, k, config, 108, True, filter_mask, parallel,
            on_shard_failure, min_shard_quorum, skip_shards,
        )
        return self._timed_merge(per_shard, k, failed, skipped, on_stage)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize all shards + assignments to the ``.npz`` at ``path``."""
        from repro.api.kinds import KINDS

        KINDS["sharded-cagra"].save(self, path)

    @classmethod
    def load(
        cls, path: str, parallel: ParallelConfig | None = None
    ) -> "ShardedCagraIndex":
        """Load an index written by :meth:`save`."""
        from repro.api.kinds import KINDS

        return KINDS["sharded-cagra"].load(path, parallel)

    # ------------------------------------------------------------------
    @property
    def executor_stats(self) -> dict | None:
        """Retry/recycle counters of the index's persistent executor.

        ``None`` until the first search on the persistent pool; per-call
        ``parallel`` overrides use throwaway executors whose stats are
        not retained.
        """
        if self._runtime.executor is None:
            return None
        return self._runtime.executor.stats.as_dict()

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def size(self) -> int:
        return sum(shard.size for shard in self.shards)

    @property
    def dim(self) -> int:
        return self.shards[0].dim

    @property
    def metric(self) -> str:
        return self.shards[0].metric

    @property
    def dataset(self) -> np.ndarray:
        """The global dataset reassembled in original row order.

        Materialized on demand (one copy); lets recall/ground-truth
        tooling and :class:`repro.serve.CagraServer` treat sharded and
        monolithic indexes uniformly.
        """
        out = np.empty(
            (self.size, self.dim), dtype=self.shards[0].dataset.dtype
        )
        for shard, ids in zip(self.shards, self.assignments):
            out[ids] = shard.dataset
        return out

    def max_shard_memory_bytes(self) -> int:
        """Per-GPU memory requirement (the quantity sharding bounds)."""
        return max(shard.memory_bytes() for shard in self.shards)

    def memory_bytes(self) -> int:
        """Total footprint across all shards."""
        return sum(shard.memory_bytes() for shard in self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedCagraIndex(num_shards={self.num_shards}, size={self.size})"
        )
