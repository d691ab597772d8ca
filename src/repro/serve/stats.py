"""Serving metrics: the one place a serving metric is declared.

Each :class:`ServeStats` / :class:`~repro.router.RouterStats` field is
declared once, with :func:`metric`: how a :class:`MetricSet` accumulates
it (``kind``) and how a fleet view folds it across replicas (``fold``).
``to_dict()``, :meth:`MetricSet.snapshot` and :func:`fold_fleet` are all
derived from ``dataclasses.fields()`` — there is no second list of names.

Both serving tiers record into one lock-protected :class:`MetricSet`
(the server's scheduler and client threads; the router's routing
callers) and freeze it into their immutable view, whose ``summary()``
renders the operator-facing text block.  Latencies are kept in a bounded
reservoir (the most recent ``LATENCY_WINDOW`` completions) so a
long-running server reports *current* tail latency with bounded memory.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FOLD_RULES",
    "LATENCY_WINDOW",
    "OUTCOME_WINDOW",
    "MetricSet",
    "ServeStats",
    "fields_as_json",
    "fold_fleet",
    "latency_summary",
    "metric",
]

#: Completions kept for percentile estimation (a sliding window).
LATENCY_WINDOW = 65536

#: Recent request outcomes (success/failure) kept for the rolling
#: failure rate reported by :meth:`CagraServer.health`.
OUTCOME_WINDOW = 256

#: The fleet fold rules a metric can declare (see :func:`metric`).
FOLD_RULES = ("sum", "max", "merge", "fleet")


def metric(fold: str, kind: str = "gauge", default=0):
    """Declare one metric field.

    ``fold`` is how :func:`fold_fleet` combines the field across replica
    snapshots: add it, take the worst, merge the histograms — or leave it
    to the ``"fleet"`` tier, which measures it itself (router-observed
    latency, its own counters, the replica census).
    ``kind`` is how :meth:`MetricSet.record` accumulates a named update:
    ``"counter"`` adds it, ``"peak"`` keeps the high-water mark,
    ``"last"`` keeps the latest value, ``"histogram"`` counts occurrences
    of it.  ``"failure_rate"`` and ``"latency"`` fields are computed from
    the rolling outcome / sliding latency windows; a ``"gauge"`` is
    sampled by the caller at snapshot time.  ``default=dict`` declares a
    mapping-valued field.
    """
    if fold not in FOLD_RULES:
        raise ValueError(f"unknown fold rule {fold!r}")
    meta = {"fold": fold, "kind": kind}
    if default is dict:
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def latency_summary(samples, percentiles=(50, 95, 99)) -> dict[str, float]:
    """``{mean, p50, p95, p99, max}`` of a latency sample (all 0.0 when
    empty) — the one percentile implementation of the serving tiers."""
    samples = np.asarray(samples, dtype=np.float64)
    keys = [f"p{q:g}" for q in percentiles]
    if not samples.size:
        return dict.fromkeys(["mean", *keys, "max"], 0.0)
    values = np.percentile(samples, list(percentiles))
    return {
        "mean": float(samples.mean()),
        **{key: float(value) for key, value in zip(keys, values)},
        "max": float(samples.max()),
    }


def fields_as_json(view) -> dict:
    """Every dataclass field of ``view``, JSON-friendly: mapping keys
    become strings, in sorted order."""
    out = {}
    for f in fields(view):
        value = getattr(view, f.name)
        if isinstance(value, dict):
            value = {str(key): item for key, item in sorted(value.items())}
        out[f.name] = value
    return out


def fold_fleet(snapshots) -> dict:
    """Fold replica snapshots into fleet-wide values, field by field.

    Every field of the snapshots' class whose rule is not ``"fleet"``
    appears in the result, so a newly declared metric reaches the fleet
    dashboard without anyone editing the router.
    """
    folded = {}
    for f in fields(snapshots[0]):
        rule = f.metadata["fold"]
        values = [getattr(snap, f.name) for snap in snapshots]
        if rule == "sum":
            folded[f.name] = sum(values)
        elif rule == "max":
            folded[f.name] = max(values)
        elif rule == "merge":
            merged = Counter()
            for histogram in values:
                merged.update(histogram)
            folded[f.name] = dict(merged)
    return folded


@dataclass(frozen=True)
class ServeStats:
    """An immutable snapshot of the server's metrics surface.

    Attributes:
        submitted: requests admitted to the queue (excludes cache hits
            and rejections).
        completed: requests answered by an executed search batch.
        cache_hits / cache_misses: result-cache outcomes at submit time.
        rejected: submissions refused because the queue was full.
        timed_out: requests whose deadline passed before completion
            (dropped while queued or abandoned by the waiting caller).
        failed: requests completed with an error (search raised, or the
            server was stopped without draining).
        batches: executed search batches.
        coalesced_batches: batches of more than one request (single-CTA
            fast path).
        single_query_batches: batch-of-1 flushes dispatched to the
            multi-CTA reference path (Table II's batch-1 rule).
        batch_size_histogram: executed batch size -> count.
        queue_depth / max_queue_depth: depth at snapshot time and the
            high-water mark.
        index_swaps: successful ``swap_index`` calls.
        degraded_batches: batches answered from a partial shard set
            (``on_shard_failure="partial"`` with failures or open
            breakers).
        shard_failures: total per-shard search failures observed across
            degraded batches.
        batch_splits: batches bisected after an execution error to
            isolate the failure (each split adds two sub-batches).
        retried_batches: sub-batches re-executed after a split.
        breaker_trips: shard circuit breakers transitioning to open.
        recent_failure_rate: failed fraction of the most recent
            :data:`OUTCOME_WINDOW` request completions (the
            :meth:`CagraServer.health` signal).
        latency_*_ms: enqueue-to-completion latency percentiles over the
            sliding window (cache hits excluded; they are ~0).
        inserts / insert_rows: accepted write calls / rows (mutable
            index only).
        deletes / delete_rows: accepted delete calls / rows.
        rebuilds_incremental / rebuilds_full: background maintenance runs
            promoted through the server.
        last_promotion_ms: promotion latency (index swap + state install)
            of the most recent maintenance run.
        memtable_rows / tombstone_ratio: freshness gauges sampled from
            the mutable index at snapshot time (0 for static indexes).
    """

    submitted: int = metric("sum", "counter")
    completed: int = metric("sum", "counter")
    cache_hits: int = metric("sum", "counter")
    cache_misses: int = metric("sum", "counter")
    rejected: int = metric("sum", "counter")
    timed_out: int = metric("sum", "counter")
    failed: int = metric("sum", "counter")
    batches: int = metric("sum", "counter")
    coalesced_batches: int = metric("sum", "counter")
    single_query_batches: int = metric("sum", "counter")
    batch_size_histogram: dict[int, int] = metric("merge", "histogram", dict)
    queue_depth: int = metric("sum")
    max_queue_depth: int = metric("max", "peak")
    index_swaps: int = metric("sum", "counter")
    degraded_batches: int = metric("sum", "counter")
    shard_failures: int = metric("sum", "counter")
    batch_splits: int = metric("sum", "counter")
    retried_batches: int = metric("sum", "counter")
    breaker_trips: int = metric("sum", "counter")
    recent_failure_rate: float = metric("max", "failure_rate", 0.0)
    inserts: int = metric("sum", "counter")
    insert_rows: int = metric("sum", "counter")
    deletes: int = metric("sum", "counter")
    delete_rows: int = metric("sum", "counter")
    rebuilds_incremental: int = metric("sum", "counter")
    rebuilds_full: int = metric("sum", "counter")
    last_promotion_ms: float = metric("max", "last", 0.0)
    memtable_rows: int = metric("sum")
    tombstone_ratio: float = metric("max", default=0.0)
    latency_mean_ms: float = metric("fleet", "latency", 0.0)
    latency_p50_ms: float = metric("fleet", "latency", 0.0)
    latency_p95_ms: float = metric("fleet", "latency", 0.0)
    latency_p99_ms: float = metric("fleet", "latency", 0.0)
    latency_max_ms: float = metric("fleet", "latency", 0.0)

    #: Derived rates ``to_dict()`` reports next to the declared fields.
    _DERIVED = ("mean_batch_size", "cache_hit_rate")

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * count for size, count in self.batch_size_histogram.items())
        return total / self.batches if self.batches else 0.0

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def to_dict(self) -> dict:
        """JSON form: every declared field plus the derived rates."""
        out = fields_as_json(self)
        out.update((name, getattr(self, name)) for name in self._DERIVED)
        return out

    def summary(self) -> str:
        """Operator-facing pretty print of the whole metrics surface."""
        lines = [
            "serving stats",
            f"  requests    submitted={self.submitted}  completed={self.completed}  "
            f"cache_hits={self.cache_hits}  rejected={self.rejected}  "
            f"timed_out={self.timed_out}  failed={self.failed}",
            f"  batches     executed={self.batches}  "
            f"coalesced={self.coalesced_batches}  "
            f"single(multi-CTA)={self.single_query_batches}  "
            f"mean_size={self.mean_batch_size:.2f}",
        ]
        if self.batch_size_histogram:
            hist = "  ".join(
                f"{size}:{count}"
                for size, count in sorted(self.batch_size_histogram.items())
            )
            lines.append(f"  batch sizes {hist}")
        lines.append(
            f"  queue       depth={self.queue_depth}  "
            f"high_water={self.max_queue_depth}"
        )
        lines.append(
            f"  cache       hit_rate={self.cache_hit_rate:.3f}  "
            f"(hits={self.cache_hits} misses={self.cache_misses})"
        )
        lines.append(
            f"  latency     mean={self.latency_mean_ms:.2f}ms  "
            f"p50={self.latency_p50_ms:.2f}ms  p95={self.latency_p95_ms:.2f}ms  "
            f"p99={self.latency_p99_ms:.2f}ms  max={self.latency_max_ms:.2f}ms"
        )
        lines.append(f"  index swaps {self.index_swaps}")
        if (
            self.degraded_batches or self.shard_failures
            or self.batch_splits or self.breaker_trips
        ):
            lines.append(
                f"  resilience  degraded_batches={self.degraded_batches}  "
                f"shard_failures={self.shard_failures}  "
                f"batch_splits={self.batch_splits}  "
                f"retried={self.retried_batches}  "
                f"breaker_trips={self.breaker_trips}  "
                f"recent_failure_rate={self.recent_failure_rate:.3f}"
            )
        if self.inserts or self.deletes or self.rebuilds_incremental or self.rebuilds_full:
            lines.append(
                f"  freshness   inserts={self.inserts}({self.insert_rows} rows)  "
                f"deletes={self.deletes}({self.delete_rows} rows)  "
                f"memtable={self.memtable_rows}  "
                f"tombstones={self.tombstone_ratio:.3f}"
            )
            lines.append(
                f"  rebuilds    incremental={self.rebuilds_incremental}  "
                f"full={self.rebuilds_full}  "
                f"last_promotion={self.last_promotion_ms:.2f}ms"
            )
        return "\n".join(lines)


class MetricSet:
    """The mutable, lock-protected state behind one stats view.

    ``view`` is the dataclass whose :func:`metric` declarations say how
    each named update accumulates.  One :meth:`record` call is one event
    and one lock acquisition, however many metrics the event touches.
    """

    def __init__(self, view: type[ServeStats]) -> None:
        self._lock = threading.Lock()
        self._kinds = {f.name: f.metadata["kind"] for f in fields(view)}
        self._values = Counter()  # counters, high-water marks, last values
        self._histogram = Counter()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._outcomes: deque[int] = deque(maxlen=OUTCOME_WINDOW)  # 1 = failed

    def record(
        self, latency_s: float | None = None, ok: bool | None = None, **updates
    ) -> None:
        """Apply one event: named metric updates by their declared kind,
        an optional latency sample, an optional request outcome."""
        with self._lock:
            for name, value in updates.items():
                kind = self._kinds[name]
                if kind == "counter":
                    self._values[name] += value
                elif kind == "peak":
                    self._values[name] = max(self._values[name], value)
                elif kind == "last":
                    self._values[name] = value
                elif kind == "histogram":
                    self._histogram[value] += 1
                else:
                    raise KeyError(f"{name} is a {kind}, not recordable")
            if latency_s is not None:
                self._latencies.append(latency_s * 1e3)
            if ok is not None:
                self._outcomes.append(0 if ok else 1)

    def snapshot(self, **gauges) -> dict:
        """Field name → value for every metric this set accumulates,
        plus the caller-sampled ``gauges``; feed it to the view class."""
        with self._lock:
            values = {**self._values, **gauges}
            histogram = dict(self._histogram)
            latencies = np.asarray(self._latencies, dtype=np.float64)
            failed, outcomes = sum(self._outcomes), len(self._outcomes)
        latency = latency_summary(latencies)
        for name, kind in self._kinds.items():
            if kind == "histogram":
                values[name] = histogram
            elif kind == "failure_rate":
                values[name] = failed / outcomes if outcomes else 0.0
            elif kind == "latency":  # latency_<stat>_ms
                values[name] = latency[name.split("_")[1]]
        return values
