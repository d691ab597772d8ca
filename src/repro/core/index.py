"""Public index API: build a CAGRA graph once, search it many times.

Typical use::

    from repro import CagraIndex, GraphBuildConfig, SearchConfig

    index = CagraIndex.build(dataset, GraphBuildConfig(graph_degree=32))
    result = index.search(queries, k=10, config=SearchConfig(itopk=64))

The index owns the dataset (possibly FP16-quantized), the optimized graph,
and the build-time reports; :meth:`save` / :meth:`load` round-trip
everything through a single ``.npz`` file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import GraphBuildConfig, SearchConfig
from repro.core.distances import METRICS, as_storage_dtype, gathered_distances
from repro.core.graph import INDEX_MASK, MAX_DATASET_SIZE, FixedDegreeGraph, link_orphans
from repro.core.nn_descent import KnnGraphResult, build_knn_graph
from repro.core.optimize import OptimizeReport, optimize_graph
from repro.core.search import CostReport, SearchResult

__all__ = ["BuildReport", "CagraIndex"]


@dataclass
class BuildReport:
    """Timing and work breakdown of one index build.

    Mirrors the Fig. 11 breakdown: initial k-NN graph build vs graph
    optimization.
    """

    knn_seconds: float
    optimize_seconds: float
    knn_distance_computations: int
    nn_descent_iterations: int
    optimize: OptimizeReport

    @property
    def total_seconds(self) -> float:
        return self.knn_seconds + self.optimize_seconds


def _repair_unfilled_edges(
    edges: np.ndarray, distances: np.ndarray, num_nodes: int, seed: int
) -> tuple[np.ndarray, dict]:
    """Replace unfilled search slots in ``edges`` with valid neighbor ids.

    ``SearchResult.indices`` marks unfilled slots with ``INDEX_MASK`` (and
    ``+inf`` distance) — e.g. when the index holds fewer reachable nodes
    than the requested ``k``.  Writing those straight into a graph would
    create dangling edges to a nonexistent node, so each one is re-drawn
    as a random valid node id, avoiding duplicates within the row when the
    index is large enough to allow it.

    Returns ``(repaired_edges, stats)`` where ``stats`` counts the repair
    work (rows touched, edges re-drawn, total RNG draws) so callers can
    surface repair cost through ``on_stage``.
    """
    edges = edges.copy()
    unfilled = (edges == INDEX_MASK) | ~np.isfinite(distances)
    repaired_edges = 0
    rng_draws = 0
    rows = np.nonzero(unfilled.any(axis=1))[0]
    for i in rows:
        # A distinct stream per row, disjoint from the search's
        # ``[seed, query]`` streams (three-element spawn key).
        rng = np.random.default_rng([seed, int(i), 0x0E11])
        present = {int(x) for x in edges[i][~unfilled[i]]}
        for j in np.nonzero(unfilled[i])[0]:
            candidate = int(rng.integers(0, num_nodes))
            rng_draws += 1
            for _ in range(32):
                if candidate not in present or len(present) >= num_nodes:
                    break
                candidate = int(rng.integers(0, num_nodes))
                rng_draws += 1
            present.add(candidate)
            edges[i, j] = np.uint32(candidate)
            repaired_edges += 1
    stats = {
        "repaired_rows": int(len(rows)),
        "repaired_edges": repaired_edges,
        "repair_rng_draws": rng_draws,
    }
    return edges, stats


class CagraIndex:
    """A CAGRA ANN index: dataset + fixed-degree optimized graph."""

    def __init__(
        self,
        dataset: np.ndarray,
        graph: FixedDegreeGraph,
        metric: str = "sqeuclidean",
        build_config: GraphBuildConfig | None = None,
        build_report: BuildReport | None = None,
    ):
        dataset = np.asarray(dataset)
        if dataset.ndim != 2:
            raise ValueError("dataset must be a 2-D array")
        if dataset.shape[0] != graph.num_nodes:
            raise ValueError(
                f"dataset has {dataset.shape[0]} rows but graph has "
                f"{graph.num_nodes} nodes"
            )
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        self.dataset = dataset
        self.graph = graph
        self.metric = metric
        self.build_config = build_config
        self.build_report = build_report
        self._engines: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: np.ndarray,
        config: GraphBuildConfig | None = None,
        dataset_dtype: str = "float32",
    ) -> "CagraIndex":
        """Build an index: NN-descent initial graph, then CAGRA optimization.

        Args:
            dataset: ``(N, dim)`` vectors, ``2 <= N <= 2**31 - 1`` (the MSB
                parented flag halves the id space, as in the paper).
            config: build parameters (degree, reordering flavour, metric...).
            dataset_dtype: ``float32`` or ``float16`` storage (the paper's
                half-precision mode).

        Raises ``ValueError`` on a bad shape, on ``graph_degree >= N``
        (before any NN-descent work), and naming the first row that holds
        NaN or inf (NN-descent orders distances by their bits).
        """
        config = config or GraphBuildConfig()
        dataset = np.asarray(dataset)
        if dataset.ndim != 2 or dataset.shape[0] < 2:
            raise ValueError("dataset must be (N >= 2, dim)")
        if config.graph_degree > dataset.shape[0] - 1:
            # d_init is clamped to N - 1, so no intermediate_degree helps.
            raise ValueError(
                f"graph_degree {config.graph_degree} needs at least "
                f"{config.graph_degree + 1} rows; the dataset has N={dataset.shape[0]}"
            )
        if dataset.shape[0] > MAX_DATASET_SIZE:
            raise ValueError(
                f"dataset too large: the 1-bit parented flag caps N at "
                f"{MAX_DATASET_SIZE}"
            )
        stored = as_storage_dtype(dataset, dataset_dtype)
        # Checked as stored: a finite float32 can overflow float16 to inf.
        finite = np.isfinite(stored).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"dataset row {bad} contains NaN or inf (as {dataset_dtype})")

        started = time.perf_counter()
        knn = build_knn_graph(stored, config.resolved_intermediate_degree, config)
        knn_seconds = time.perf_counter() - started

        started = time.perf_counter()
        graph, opt_report = optimize_graph(knn, config)
        optimize_seconds = time.perf_counter() - started

        report = BuildReport(
            knn_seconds=knn_seconds,
            optimize_seconds=optimize_seconds,
            knn_distance_computations=knn.distance_computations,
            nn_descent_iterations=knn.iterations,
            optimize=opt_report,
        )
        return cls(
            stored,
            graph,
            metric=config.metric,
            build_config=config,
            build_report=report,
        )

    @classmethod
    def from_knn_result(
        cls, dataset: np.ndarray, knn: KnnGraphResult, config: GraphBuildConfig
    ) -> "CagraIndex":
        """Optimize a pre-built initial k-NN graph (reuses NN-descent work
        across ablation configurations)."""
        started = time.perf_counter()
        graph, opt_report = optimize_graph(knn, config)
        optimize_seconds = time.perf_counter() - started
        report = BuildReport(
            knn_seconds=0.0,
            optimize_seconds=optimize_seconds,
            knn_distance_computations=knn.distance_computations,
            nn_descent_iterations=knn.iterations,
            optimize=opt_report,
        )
        return cls(
            np.asarray(dataset),
            graph,
            metric=config.metric,
            build_config=config,
            build_report=report,
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def engine(self, precision: str = "fp32"):
        """The cached :class:`~repro.core.traversal.TraversalEngine` for
        this index at the given dataset ``precision``.

        Caching amortizes the fp16 storage conversion across searches; the
        key includes the dataset/graph identities so a stale engine can
        never serve a mutated index.
        """
        from repro.core.traversal import TraversalEngine

        key = (precision, id(self.dataset), id(self.graph))
        engine = self._engines.get(key)
        if engine is None:
            engine = TraversalEngine(
                self.dataset, self.graph, metric=self.metric, precision=precision
            )
            self._engines = {key: engine}
        return engine

    def _config_engine(self, config: SearchConfig | None):
        return self.engine(config.precision if config else "fp32")

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        config: SearchConfig | None = None,
        num_sms: int = 108,
        filter_mask: np.ndarray | None = None,
        on_stage=None,
    ) -> SearchResult:
        """k-ANN search for a batch of queries (see :func:`search_batch`).

        ``filter_mask`` (length-N bool) restricts results to rows whose
        entry is True (pre-filtered search).  ``on_stage(name, seconds,
        counters)`` is the unified instrumentation hook (one
        ``core.search`` event per call; see :mod:`repro.api`).
        """
        started = time.perf_counter() if on_stage is not None else 0.0
        result = self._config_engine(config).search(
            queries,
            k,
            config=config,
            mode="reference",
            num_sms=num_sms,
            filter_mask=filter_mask,
        )
        if on_stage is not None:
            on_stage(
                "core.search",
                time.perf_counter() - started,
                result.report.as_dict(),
            )
        return result

    def search_fast(
        self,
        queries: np.ndarray,
        k: int = 10,
        config: SearchConfig | None = None,
        filter_mask: np.ndarray | None = None,
        on_stage=None,
    ) -> SearchResult:
        """Vectorized lockstep batch search (single-CTA semantics, exact
        visited tracking) — typically ~10x or more faster in Python than
        :meth:`search`; see :mod:`repro.core.traversal`.  A step costs
        what its ``CostReport`` is charged for: distances are gathered and
        reduced for first visits only.

        Distances accumulate in float32 (fp32 and fp16 storage alike) and
        are returned as float64; the top-M merge sorts packed
        (distance, id) keys, which presumes no NaN distance — queries and
        indexed data are both checked finite on the way in — and returns a
        ``-0.0`` distance (an inner product of exactly zero) as ``+0.0``.

        ``on_stage`` is the unified instrumentation hook (one
        ``core.search_fast`` event per call)."""
        started = time.perf_counter() if on_stage is not None else 0.0
        result = self._config_engine(config).search(
            queries,
            k,
            config=config,
            mode="fast",
            filter_mask=filter_mask,
        )
        if on_stage is not None:
            on_stage(
                "core.search_fast",
                time.perf_counter() - started,
                result.report.as_dict(),
            )
        return result

    # ------------------------------------------------------------------
    # incremental insertion
    # ------------------------------------------------------------------
    def extend(
        self, new_vectors: np.ndarray, itopk: int = 0, seed: int = 0, on_stage=None
    ) -> "CagraIndex":
        """Insert new vectors without rebuilding (cuVS CAGRA ``extend``).

        Each new vector searches the current index for its ``degree``
        nearest neighbors; those and its exact nearest neighbors among the
        batch itself (one ``m x m`` distance block, so same-batch rows
        link directly) merge, nearest first, into its out-edges.  Reverse
        links go into half of its targets through
        :func:`~repro.core.graph.link_orphans`, which never evicts a
        node's last in-edge and then links any row still without one, so
        every row stays reachable.  Returns a *new* index — the original
        is untouched.

        Quality note: this is the standard search-based insertion; after
        extending by a large fraction of the index a full rebuild
        recovers graph quality (exactly the cuVS guidance).

        Unfilled search slots (``INDEX_MASK``, e.g. on a near-empty index
        with fewer reachable nodes than ``degree``) are repaired with
        random valid neighbors instead of being written as dangling
        edges; :func:`~repro.core.validation.validate_index` flags any
        graph where such a sentinel survived.

        ``on_stage(name, seconds, counters)`` receives one ``core.extend``
        event covering the whole insertion, with counters for the
        neighbor-search and batch k-NN cost (``distance_computations``),
        rows added, and
        the edge-repair work (``repaired_rows`` / ``repaired_edges`` /
        ``repair_rng_draws`` / ``reverse_links_planted``) so streaming
        policies can observe the measured repair cost per batch.
        """
        started = time.perf_counter() if on_stage is not None else 0.0
        new_vectors = np.atleast_2d(np.asarray(new_vectors))
        if new_vectors.shape[1] != self.dim:
            raise ValueError(
                f"new vectors have dim {new_vectors.shape[1]}, index has {self.dim}"
            )
        degree = self.degree
        if self.size + new_vectors.shape[0] > MAX_DATASET_SIZE:
            raise ValueError("extend would exceed the 2**31 - 1 id space")
        new_vectors = as_storage_dtype(new_vectors, str(self.dataset.dtype))
        config = SearchConfig(
            itopk=itopk or max(2 * degree, 32), algo="single_cta", seed=seed
        )
        result = self.search_fast(new_vectors, k=degree, config=config)

        n = self.size
        m = new_vectors.shape[0]
        searched, repair_stats = _repair_unfilled_edges(
            result.indices.astype(np.uint32), result.distances, n, seed
        )
        dataset = np.vstack([self.dataset, new_vectors])
        batch_ids = np.arange(n, n + m, dtype=np.uint32)
        new_edges = np.empty((m, degree), dtype=np.uint32)
        rows_per_block = max(1, (1 << 20) // m)
        for start in range(0, m, rows_per_block):
            rows = np.arange(start, min(m, start + rows_per_block))
            batch = gathered_distances(
                dataset, new_vectors[rows], np.broadcast_to(batch_ids, (len(rows), m)),
                self.metric,
            )
            batch[np.arange(len(rows)), rows] = np.inf  # no self-loop
            ids = np.hstack([searched[rows], np.broadcast_to(batch_ids, batch.shape)])
            dists = np.hstack([result.distances[rows], batch])
            order = np.argsort(dists, axis=1, kind="stable")[:, :degree]
            new_edges[rows] = np.take_along_axis(ids, order, axis=1)
        rows = np.vstack([self.graph.neighbors, new_edges]).tolist()
        reverse_links = link_orphans(
            rows, degree, links=[
                (t, n + i) for i, row in enumerate(new_edges.tolist()) for t in row[: degree // 2]
            ],
        )
        if on_stage is not None:
            counters = dict(result.report.as_dict())
            counters["distance_computations"] += m * m
            counters.update(repair_stats)
            counters["rows_added"] = m
            counters["reverse_links_planted"] = reverse_links
            on_stage("core.extend", time.perf_counter() - started, counters)
        return CagraIndex(
            dataset,
            FixedDegreeGraph(np.array(rows, dtype=np.uint32)),
            metric=self.metric,
            build_config=self.build_config,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize dataset + graph + metric to the ``.npz`` at ``path``."""
        from repro.api.kinds import KINDS

        KINDS["cagra"].save(self, path)

    @classmethod
    def load(cls, path: str) -> "CagraIndex":
        """Load an index written by :meth:`save`."""
        from repro.api.kinds import KINDS

        return KINDS["cagra"].load(path)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return int(self.dataset.shape[0])

    @property
    def dim(self) -> int:
        return int(self.dataset.shape[1])

    @property
    def degree(self) -> int:
        return self.graph.degree

    def memory_bytes(self) -> int:
        """Device-memory footprint of dataset + graph."""
        return int(self.dataset.nbytes + self.graph.neighbors.nbytes)

    def __repr__(self) -> str:
        return (
            f"CagraIndex(size={self.size}, dim={self.dim}, degree={self.degree}, "
            f"metric={self.metric!r}, dtype={self.dataset.dtype})"
        )
