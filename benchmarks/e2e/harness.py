"""What every phase group shares: inputs, the metric sink, the checks."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spec
from sizing import Profile
from spans import Tracer
from stats import median

from repro import CagraIndex, GraphBuildConfig, SearchConfig
from repro.baselines import exact_search
from repro.core.graph import INDEX_MASK
from repro.core.metrics import recall
from repro.datasets import load_dataset

_MASK = int(INDEX_MASK)


class Results:
    """Metric sink; accepts only names listed in :mod:`spec`."""

    def __init__(self):
        self.values: dict[str, dict] = {}

    def put(self, name: str, value, samples: int = 1, **detail) -> None:
        metric = spec.BY_NAME[name]  # KeyError: not in the contract
        self.values[name] = {
            "value": float(value),
            "unit": metric.unit,
            "clock": metric.clock,
            "better": metric.better,
            "samples": int(samples),
            **detail,
        }

    def put_best_round(self, name: str, rounds, scale=lambda v: v) -> None:
        """Record the best round's median of ``rounds`` (a
        :class:`stats.Rounds`), with every round's median and the median
        of all samples kept beside it.  ``scale`` maps a median to the
        metric's unit (it may invert: seconds per batch -> queries/s)."""
        better = spec.BY_NAME[name].better
        per_round = [scale(m) for m in rounds.medians()]
        self.put(
            name,
            min(per_round) if better == "lower" else max(per_round),
            len(rounds),
            per_round=per_round,
            median_of_all=scale(median(rounds.flat)),
        )

    def missing(self, metrics) -> list[str]:
        return [m.name for m in metrics if m.name not in self.values]


class Checks:
    """Counts operations and correctness failures.

    ``attempted`` counts user-visible operations (queries answered, writes
    acked, builds); a failed, refused or timed-out operation and every
    violated correctness check add to ``failed``.  Locked: the concurrent
    stream phase counts from a writer and a reader thread.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def ops(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += int(count)

    def fail(self, message: str, count: int = 1) -> None:
        if count > 0:
            with self._lock:
                self.failed += int(count)
                self.messages.append(f"{message} (x{count})")

    def require(self, condition: bool, message: str) -> None:
        self.ops()
        if not condition:
            self.fail(message)


def bad_id_rows(indices, size: int) -> int:
    """Rows violating the result contract: ids in ``[0, size)``, with
    ``INDEX_MASK`` only as trailing padding."""
    ids = np.atleast_2d(np.asarray(indices)).astype(np.int64)
    filled = ids != _MASK
    in_range = (ids >= 0) & (ids < size)
    trailing = np.all(filled[:, :-1] >= filled[:, 1:], axis=1)
    return int(np.count_nonzero(~(np.all(in_range | ~filled, axis=1) & trailing)))


@dataclass
class Context:
    """One run's inputs and shared state."""

    profile: Profile
    workload: str
    seed: int
    trace: bool
    seconds: dict[str, float]  # time-boxed phase -> seconds
    out_dir: Path  # scratch inside the checkout (WAL, saved index, trace)
    tracer: Tracer
    results: Results = field(default_factory=Results)
    checks: Checks = field(default_factory=Checks)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # filled by prepare()
    data: np.ndarray | None = None
    pool: np.ndarray | None = None
    queries: np.ndarray | None = None
    truth: np.ndarray | None = None
    index: CagraIndex | None = None
    build_config: GraphBuildConfig | None = None
    search_config: SearchConfig | None = None
    # filled by groups for later groups' checks and sweeps
    offline_recall: float | None = None
    sharded: object | None = None  # ShardedCagraIndex, traced run only

    @property
    def k(self) -> int:
        return self.profile.k

    def slice_seconds(self, phase: str, rounds: int = 1) -> float:
        return self.seconds[phase] / rounds

    @contextmanager
    def clock(self, phase: str):
        """Add the block's wall time to ``phase`` and, when tracing, wrap
        it in a ``phase.<name>`` span that the per-call spans inside it
        name as their parent."""
        with self.tracer.span(f"phase.{phase}"):
            started = time.perf_counter()
            try:
                yield
            finally:
                spent = time.perf_counter() - started
                self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + spent

    def check_ids(self, indices, size: int | None = None, what: str = "search") -> None:
        """Count one operation per result row and fail the bad ones."""
        rows = np.atleast_2d(np.asarray(indices)).shape[0]
        self.checks.ops(rows)
        self.checks.fail(
            f"{what}: ids outside [0, size) or non-trailing padding",
            bad_id_rows(indices, self.index.size if size is None else size),
        )

    def check_answers(self, rows, answers, what: str) -> None:
        """``check_ids`` for served answers, and each answer must be its
        *own query's*: the distances it carries are those from
        ``queries[row]`` to the rows it names.  This is what catches a
        serving layer handing a request another request's answer; mean
        recall over a hundred lone requests cannot (the scalar path's own
        recall swings by 0.07 over such a sample on some seeds)."""
        ids = np.stack([a.indices for a in answers]).astype(np.int64)
        self.check_ids(ids, what=what)
        named = ids != _MASK
        vectors = self.index.dataset[np.where(named, ids, 0)].astype(np.float64)
        own = ((vectors - self.queries[np.asarray(rows)][:, None, :]) ** 2).sum(axis=2)
        carried = np.stack([a.distances for a in answers])
        wrong = named & ~np.isclose(carried, own, rtol=1e-3, atol=1e-3)
        self.checks.fail(f"{what}: answer is not its own query's",
                         int(np.count_nonzero(wrong.any(axis=1))))

    def recall(self, found, rows) -> float:
        return recall(np.asarray(found), self.truth[np.asarray(rows)])


def prepare(ctx: Context) -> None:
    """Dataset, cold index build, ground truth and engine warm-up.

    The first build of a process pays for touching every heap page it
    uses (about half its wall time here); it belongs to ``setup_s`` and
    ``build_s`` is measured later on the warm heap.
    """
    p, seed = ctx.profile, ctx.seed
    started = time.perf_counter()
    bundle = load_dataset(
        "deep-1m", scale=p.rows + p.insert_pool, num_queries=p.num_queries, seed=seed
    )
    ctx.results.put("datasets.generate_s", time.perf_counter() - started)
    # Rows are i.i.d. draws from one mixture, so a prefix/suffix split
    # gives an index set and an insert pool of the same distribution.
    ctx.data, ctx.pool = bundle.data[: p.rows], bundle.data[p.rows :]
    ctx.queries = bundle.queries
    ctx.build_config = GraphBuildConfig(graph_degree=p.degree, seed=seed)
    ctx.search_config = SearchConfig(itopk=p.itopk, search_width=1, seed=seed)
    with ctx.tracer.span("setup.build"):
        ctx.index = CagraIndex.build(ctx.data, ctx.build_config)
    started = time.perf_counter()
    truth, _ = exact_search(ctx.data, ctx.queries, p.k, metric=ctx.index.metric)
    ctx.results.put("baselines.exact_truth_s", time.perf_counter() - started)
    ctx.truth = truth.astype(np.int64)
    ctx.index.search_fast(ctx.queries[:64], p.k, config=ctx.search_config)
    for row in range(4):
        ctx.index.search(ctx.queries[row : row + 1], p.k, config=ctx.search_config)
