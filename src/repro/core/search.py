"""The CAGRA search algorithm (Sec. IV).

The search walks the fixed-degree graph with a sequential buffer made of an
**internal top-M list** and a ``p×d`` **candidate list** (Fig. 6):

* ⓪ initialization — ``p×d`` uniformly random nodes seed the candidate
  list (no hierarchy: random sampling replaces HNSW's upper layers);
* ① top-M update — merge the candidate list into the top-M list;
* ② traversal — pick the best ``p`` nodes of the top-M list that have not
  been parents yet (the MSB of the stored index is the 1-bit parented
  flag, Sec. IV-B4), and gather their ``d`` neighbors each;
* ③ distance calculation — compute distances only for nodes seen for the
  first time, tracked by an open-addressing hash table.

Iterate ①–③ until every top-M entry has been a parent, then return the
top-k prefix.

Two hardware mappings exist (Table II).  **single-CTA** processes one
query per CTA with the forgettable shared-memory hash — the large-batch
path.  **multi-CTA** spreads one query over several CTAs, each running a
narrow (``p=1``, 32-entry top-M) instance of the same loop while *sharing*
one device-memory hash table, so different CTAs explore disjoint regions —
the small-batch / high-recall path.

Python cannot run CUDA, so this module executes the *algorithm* exactly
(ids, distances and recall are real) and meters every operation class into
a :class:`CostReport`; :mod:`repro.gpusim` turns those counters into
simulated kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.config import SearchConfig
from repro.core.distances import distances_to_query
from repro.core.graph import INDEX_MASK, PARENT_FLAG, FixedDegreeGraph
from repro.core.hashtable import ForgettableHashTable, StandardHashTable
from repro.core.rng_init import counter_draws
from repro.core.topm import bitonic_comparator_count, merge_topm, sort_strategy

__all__ = ["CostReport", "SearchResult", "scale_report", "search_batch"]


@dataclass
class CostReport:
    """Operation counters for one search call (batch-wide totals).

    The GPU cost model prices these; the algorithmic outputs never depend
    on them.
    """

    algo: str = "single_cta"
    batch_size: int = 0
    cta_count: int = 0
    iterations: int = 0
    distance_computations: int = 0
    skipped_distance_computations: int = 0
    recomputed_distances: int = 0
    candidate_gathers: int = 0
    sort_comparator_ops: int = 0
    radix_sorted_elements: int = 0
    serial_queue_ops: int = 0
    hash_lookups: int = 0
    hash_probes: int = 0
    hash_insertions: int = 0
    hash_resets: int = 0
    hash_in_shared: bool = True
    hash_log2_size: int = 0
    random_inits: int = 0
    kernel_launches: int = 1
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat counter mapping for the unified ``repro.api`` surface.

        Keys match the field names, in declaration order; ``extras`` is
        folded in last so ad-hoc counters appear alongside the standard
        ones.
        """
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "extras"
        }
        out.update(self.extras)
        return out

    def merge_from(self, other: "CostReport") -> None:
        """Accumulate another report's counters (per-query → batch).

        Every field is an additive counter except the ones named in
        :data:`_NOT_ADDITIVE`, so a newly declared counter merges without
        being listed anywhere.
        """
        for f in fields(self):
            if f.name not in _NOT_ADDITIVE:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


#: ``CostReport`` fields that :meth:`CostReport.merge_from` leaves alone:
#: they describe the call (mapping, batch, table placement and size, launch
#: count, ad-hoc extras) rather than count its work, and are set by whoever
#: owns the batch-wide report, not summed from per-query parts.
_NOT_ADDITIVE = frozenset(
    {
        "algo",
        "batch_size",
        "hash_in_shared",
        "hash_log2_size",
        "kernel_launches",
        "extras",
    }
)


def scale_report(report: CostReport, factor: float) -> CostReport:
    """Scale a batch's counters to a larger simulated batch.

    Counters grow linearly with query count; per-query behaviour (and so
    recall) is unchanged.  ``cta_count`` and ``batch_size`` scale with the
    same factor (rounded, at least 1) so wave scheduling sees the full
    batch; the other non-additive fields describe the call and are copied,
    and ``extras`` are dropped.  Like :meth:`CostReport.merge_from`, the
    scaled set is derived from the fields, so a new counter scales too.
    """
    scaled = CostReport()
    for f in fields(CostReport):
        value = getattr(report, f.name)
        if f.name in ("batch_size", "cta_count"):
            value = max(1, int(round(value * factor)))
        elif f.name == "extras":
            continue
        elif f.name not in _NOT_ADDITIVE:
            value = int(value * factor)
        setattr(scaled, f.name, value)
    return scaled


@dataclass
class SearchResult:
    """Batched ANN search output.

    Attributes:
        indices: ``(batch, k)`` neighbor ids (``INDEX_MASK`` marks unfilled
            slots, which only happens on pathologically small graphs).
        distances: matching distances (``inf`` on unfilled slots).
        report: operation counters for the whole batch.
    """

    indices: np.ndarray
    distances: np.ndarray
    report: CostReport


def _charge_sort(report: CostReport, candidate_length: int, topm: int) -> None:
    """Meter step ①'s sort+merge for one iteration."""
    strategy = sort_strategy(candidate_length)
    if strategy == "warp_bitonic":
        report.sort_comparator_ops += bitonic_comparator_count(candidate_length)
    else:
        report.radix_sorted_elements += candidate_length
    # Bitonic merge of two sorted runs of total length M + len.
    report.sort_comparator_ops += bitonic_comparator_count(topm + candidate_length) // max(
        1, (topm + candidate_length).bit_length()
    ) * 2


def _greedy_core(
    data: np.ndarray,
    graph: FixedDegreeGraph,
    query: np.ndarray,
    itopk: int,
    search_width: int,
    max_iterations: int,
    min_iterations: int,
    table: StandardHashTable,
    seed: int,
    key: int,
    worker: int,
    metric: str,
    report: CostReport,
    seed_ids: np.ndarray | None = None,
    filter_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One CTA's greedy loop; returns the final (ids, dists) top-M buffer.

    This is the sequential *executable specification* of the traversal:
    production entry points run the array-parallel
    :class:`repro.core.traversal.TraversalEngine` instead, which is pinned
    bitwise against this loop (internals tests cross-validate the two).

    Random draws come from :func:`repro.core.rng_init.counter_draws` on
    ``(seed, key, worker, step)``: ``key`` is the query's
    :func:`~repro.core.rng_init.query_keys` value, ``worker`` the multi-CTA
    worker index, step 0 seeds the candidate list and step ``i`` is the
    ``min_iterations`` re-seed at iteration ``i``.  ``seed_ids`` overrides
    the step-0 draw (used by tests).

    ``filter_mask`` implements filtered search the way the production
    kernels do: a node whose mask entry is False gets its distance forced
    to +inf right after computation, so it can never enter the top-M list
    (and therefore never the results), while the graph remains fully
    traversable through the unfiltered nodes.
    """
    n = graph.num_nodes
    degree = graph.degree
    width = search_width * degree
    # All node ids whose distance was ever computed; distances computed
    # again after a forgettable reset are L2-cached reloads, which the
    # cost model prices below DRAM traffic.
    ever_computed: set[int] = set()

    # ⓪ random initialization.
    if seed_ids is None:
        seed_ids = counter_draws(seed, [key], worker, 0, width, n)[0]
    else:
        seed_ids = np.asarray(seed_ids, dtype=np.uint32)
    report.random_inits += len(seed_ids)
    fresh = table.insert_unique(seed_ids)
    cand_ids = seed_ids.copy()
    cand_dists = np.full(len(seed_ids), np.inf)
    if fresh.any():
        cand_dists[fresh] = distances_to_query(
            data, query, cand_ids[fresh], metric=metric
        )
        report.distance_computations += int(fresh.sum())
        ever_computed.update(int(x) for x in cand_ids[fresh])
    if filter_mask is not None:
        cand_dists[~filter_mask[cand_ids.astype(np.int64)]] = np.inf
    report.skipped_distance_computations += int((~fresh).sum())

    topm_ids = np.full(itopk, INDEX_MASK, dtype=np.uint32)
    topm_dists = np.full(itopk, np.inf)

    iteration = 0
    while iteration < max_iterations:
        iteration += 1
        # ① top-M update.
        _charge_sort(report, len(cand_ids), itopk)
        topm_ids, topm_dists = merge_topm(
            topm_ids, topm_dists, cand_ids, cand_dists, itopk
        )

        # ② pick un-parented parents.
        unparented = np.nonzero(
            ((topm_ids & PARENT_FLAG) == 0) & (topm_ids != INDEX_MASK)
        )[0]
        if len(unparented) == 0:
            if iteration >= min_iterations:
                break
            # Converged early but min_iterations demands more work: re-seed
            # with fresh random nodes, as the kernel's slack iterations do.
            extra = counter_draws(seed, [key], worker, iteration, width, n)[0]
            fresh = table.insert_unique(extra)
            cand_ids = extra
            cand_dists = np.full(width, np.inf)
            if fresh.any():
                cand_dists[fresh] = distances_to_query(
                    data, query, extra[fresh], metric=metric
                )
                report.distance_computations += int(fresh.sum())
                fresh_ids = [int(x) for x in extra[fresh]]
                report.recomputed_distances += sum(
                    1 for x in fresh_ids if x in ever_computed
                )
                ever_computed.update(fresh_ids)
            if filter_mask is not None:
                cand_dists[~filter_mask[extra.astype(np.int64)]] = np.inf
            report.skipped_distance_computations += int((~fresh).sum())
            continue
        parents_pos = unparented[:search_width]
        parent_nodes = (topm_ids[parents_pos] & INDEX_MASK).astype(np.int64)
        topm_ids[parents_pos] |= PARENT_FLAG

        # ② gather neighbor indices into the candidate list.
        cand_ids = graph.neighbors[parent_nodes].reshape(-1)
        report.candidate_gathers += len(cand_ids)

        # ③ compute distances for first-time nodes only.
        fresh = table.insert_unique(cand_ids)
        cand_dists = np.full(len(cand_ids), np.inf)
        if fresh.any():
            cand_dists[fresh] = distances_to_query(
                data, query, cand_ids[fresh], metric=metric
            )
            report.distance_computations += int(fresh.sum())
            fresh_ids = [int(x) for x in cand_ids[fresh]]
            report.recomputed_distances += sum(
                1 for x in fresh_ids if x in ever_computed
            )
            ever_computed.update(fresh_ids)
        if filter_mask is not None:
            cand_dists[~filter_mask[cand_ids.astype(np.int64)]] = np.inf
        report.skipped_distance_computations += int((~fresh).sum())

        if isinstance(table, ForgettableHashTable):
            table.maybe_reset(topm_ids & INDEX_MASK)

    report.iterations += iteration
    return topm_ids, topm_dists


def _collect_hash_counters(report: CostReport, table) -> None:
    """Fold a table's measured hash traffic into ``report`` (a scalar
    :class:`StandardHashTable` or the engine's row-parallel hash slab)."""
    report.hash_lookups += table.lookups
    report.hash_probes += table.probes
    report.hash_insertions += table.insertions
    report.hash_resets += table.resets


def search_batch(
    data: np.ndarray,
    graph: FixedDegreeGraph,
    queries: np.ndarray,
    k: int,
    config: SearchConfig | None = None,
    metric: str = "sqeuclidean",
    num_sms: int = 108,
    filter_mask: np.ndarray | None = None,
) -> SearchResult:
    """Search a batch of queries (reference fidelity).

    Thin shim over :class:`repro.core.traversal.TraversalEngine` in
    ``mode="reference"``: the hash-faithful array-parallel backend, bit-
    exact against the historical per-query loop (ids, distances and every
    :class:`CostReport` counter).  The implementation (single- vs
    multi-CTA) follows the Fig. 7 rule unless ``config.algo`` pins one
    explicitly.

    ``filter_mask`` (length-N bool) enables filtered search: nodes whose
    entry is False are excluded from results (their computed distances
    are forced to +inf, like the production kernels do); use a larger
    ``itopk`` when the mask is very selective.
    """
    from repro.core.traversal import TraversalEngine

    config = config or SearchConfig()
    engine = TraversalEngine(data, graph, metric=metric, precision=config.precision)
    return engine.search(
        queries,
        k,
        config=config,
        mode="reference",
        num_sms=num_sms,
        filter_mask=filter_mask,
    )
