"""The dense (``mode="fast"``) traversal step as it ran before the top-M
stayed packed across steps: ``_DenseVisited.probe`` (a first-occurrence
sort over every lane), ``_merge_rows`` (unpack, repack and sort the whole
top-M each step), ``_pick_parents`` (one sort per row for every
``search_width``), ``_charge_iteration_sort`` (a ``bincount`` of per-row
candidate lengths) and the stepping loop with its quarter-dead
compaction.

Kept verbatim (``self`` became ``engine``; the loop is specialised to the
dense backend) as the oracle for :meth:`TraversalEngine._traverse` in fast
mode: ``tests/test_traversal_differential.py`` holds ids, distances and
every ``CostReport`` field equal on generated searches.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import gathered_distances
from repro.core.graph import INDEX_MASK, PARENT_FLAG
from repro.core.rng_init import counter_draws, query_keys
from repro.core.search import SearchResult
from repro.core.topm import (
    INF_ORDER_BITS,
    bitonic_comparator_count,
    float32_from_order_bits,
    float32_order_bits,
    sort_strategy,
)
from repro.core.traversal import _first_occurrence_rows
from repro.core.validation import validate_request

_COMPACT_FRACTION = 4  # 1/4
_HALF = np.uint64(32)


def _charge_iteration_sort(report, lengths, itopk):
    counts = np.bincount(lengths)
    for length in np.flatnonzero(counts[1:]) + 1:
        length, count = int(length), int(counts[length])
        if sort_strategy(length) == "warp_bitonic":
            report.sort_comparator_ops += count * bitonic_comparator_count(length)
        else:
            report.radix_sorted_elements += count * length
        merged = itopk + length
        report.sort_comparator_ops += count * (
            bitonic_comparator_count(merged) // max(1, merged.bit_length()) * 2
        )


def _pick_parents(selectable: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    width = selectable.shape[1]
    lane_bits = (width - 1).bit_length()
    lanes = np.arange(width, dtype=np.uint32)
    keys = np.where(selectable, lanes, lanes | np.uint32(1 << lane_bits))
    keys.sort(axis=1)
    head = keys[:, :p]
    picked = head < np.uint32(1 << lane_bits)
    return (head & np.uint32((1 << lane_bits) - 1)).astype(np.intp), picked


def _merge_rows(topm_ids, topm_dists, cand_ids, cand_dists, m):
    dists = np.concatenate([topm_dists, cand_dists], axis=1)
    ids = np.concatenate([topm_ids, cand_ids], axis=1, dtype=np.uint32)
    if dists.dtype != np.float32:
        ids = np.where(np.isinf(dists), INDEX_MASK, ids)
        order = np.lexsort((ids & INDEX_MASK, dists), axis=1)[:, :m]
        return (
            np.take_along_axis(ids, order, axis=1),
            np.take_along_axis(dists, order, axis=1),
        )
    keys = float32_order_bits(dists).astype(np.uint64)
    keys <<= _HALF
    keys |= (ids << 1) | (ids >> 31)  # the flag rotates down to bit 0
    keys.sort(axis=1)
    keys = keys[:, :m]
    low = keys.astype(np.uint32)
    bits = (keys >> _HALF).astype(np.uint32)
    out_ids = (low >> 1) | (low << 31)
    out_ids[bits >= INF_ORDER_BITS] = INDEX_MASK
    return out_ids, float32_from_order_bits(bits)


class DenseVisited:
    merge = staticmethod(_merge_rows)

    def __init__(self, rows: int, num_nodes: int):
        self._scratch = num_nodes
        self.table = np.zeros((rows, num_nodes + 1), dtype=bool)
        self.lookups = 0
        self.insertions = 0

    def probe(self, row_ids, ids, lane_usable):
        lanes = np.where(lane_usable, ids, self._scratch)
        cells = lanes + (row_ids * self.table.shape[1])[:, None]
        table = self.table.reshape(-1)
        fresh = _first_occurrence_rows(lanes) & lane_usable & ~table[cells]
        table[cells] = True
        self.lookups += int(lane_usable.sum())
        self.insertions += int(fresh.sum())
        return fresh

    def end_step(self, row_ids, topm_ids, expanded):
        """Nothing to forget."""

    def collect(self, report):
        report.hash_lookups += self.lookups
        report.hash_probes += 2 * self.lookups
        report.hash_insertions += self.insertions


def first_visits(engine, visited, row_ids, queries, ids, lane_usable, filter_mask, report):
    fresh = visited.probe(row_ids, ids, lane_usable)
    at = np.flatnonzero(fresh)
    nodes = ids.reshape(-1)[at].astype(np.intp)
    found = gathered_distances(
        engine.data, queries, nodes[:, None], engine.metric, query_rows=at // ids.shape[1]
    )[:, 0]
    if filter_mask is not None:
        found = np.where(filter_mask[nodes], found, np.inf)
    dists = np.full(ids.shape, np.inf, dtype=found.dtype)
    dists.reshape(-1)[at] = found
    report.distance_computations += nodes.size
    report.skipped_distance_computations += int(lane_usable.sum()) - nodes.size
    return np.where(lane_usable, ids, INDEX_MASK), dists


def traverse(engine, queries, keys, plan, visited, seed, worker, filter_mask, report, seeds=None):
    n = engine.graph.num_nodes
    degree = engine.graph.degree
    itopk = plan.itopk
    p = plan.search_width
    width = p * degree
    total_rows = queries.shape[0]
    out_ids = np.empty((total_rows, itopk), dtype=np.uint32)
    out_dists = np.empty((total_rows, itopk), dtype=np.float64)
    row_ids = np.arange(total_rows, dtype=np.int64)

    if seeds is None:
        seeds = counter_draws(seed, keys, worker, 0, width, n)
        report.random_inits += total_rows * width
    cand_ids, cand_dists = first_visits(
        engine, visited, row_ids, queries, seeds, np.ones(seeds.shape, dtype=bool),
        filter_mask, report,
    )

    topm_ids = np.full((total_rows, itopk), INDEX_MASK, dtype=np.uint32)
    topm_dists = np.full((total_rows, itopk), np.inf, dtype=cand_dists.dtype)
    live = np.ones(total_rows, dtype=bool)
    cand_width = np.full(total_rows, seeds.shape[1], dtype=np.int64)

    iteration = 0
    while iteration < plan.max_iterations and live.any():
        dead = ~live
        if dead.any() and _COMPACT_FRACTION * int(dead.sum()) >= dead.size:
            out_ids[row_ids[dead]] = topm_ids[dead]
            out_dists[row_ids[dead]] = topm_dists[dead]
            row_ids = row_ids[live]
            queries = queries[live]
            topm_ids = topm_ids[live]
            topm_dists = topm_dists[live]
            cand_ids = cand_ids[live]
            cand_dists = cand_dists[live]
            cand_width = cand_width[live]
            live = live[live]

        iteration += 1
        report.iterations += int(live.sum())
        _charge_iteration_sort(report, cand_width[live], itopk)

        topm_ids, topm_dists = visited.merge(topm_ids, topm_dists, cand_ids, cand_dists, itopk)

        selectable = (topm_ids < INDEX_MASK) & live[:, None]
        pick_order, picked = _pick_parents(selectable, p)
        expanding = picked.any(axis=1)
        reseed = live & ~expanding & (iteration < plan.min_iterations)
        live = expanding | reseed
        if not live.any():
            break

        slab_rows = np.arange(row_ids.size)[:, None]
        parent_entries = topm_ids[slab_rows, pick_order]
        topm_ids[slab_rows, pick_order] = np.where(
            picked, parent_entries | PARENT_FLAG, parent_entries
        )
        parent_nodes = np.where(picked, parent_entries & INDEX_MASK, 0)

        cand_ids = engine.graph.neighbors[parent_nodes.astype(np.intp)].reshape(row_ids.size, width)
        lane_usable = np.repeat(picked, degree, axis=1)
        report.candidate_gathers += int(picked.sum()) * degree
        cand_width = picked.sum(axis=1) * degree
        if reseed.any():
            cand_ids[reseed] = counter_draws(seed, keys[row_ids[reseed]], worker, iteration, width, n)
            lane_usable |= reseed[:, None]
            cand_width = np.where(reseed, width, cand_width)

        cand_ids, cand_dists = first_visits(
            engine, visited, row_ids, queries, cand_ids, lane_usable, filter_mask, report
        )
        visited.end_step(row_ids, topm_ids, expanding)

    out_ids[row_ids] = topm_ids
    out_dists[row_ids] = topm_dists
    return out_ids, out_dists


def search_fast(engine, queries, k, config, filter_mask=None, seeds=None) -> SearchResult:
    """``engine.search(queries, k, config, mode="fast", ...)`` on the
    dense step above: one chunk (chunking is transparent), one pass."""
    queries, filter_mask = validate_request(
        queries, k, engine.data.shape[1], size=engine.graph.num_nodes, filter_mask=filter_mask
    )
    if seeds is not None:
        seeds = np.asarray(seeds).astype(np.uint32)
    batch = queries.shape[0]
    plan = engine._resolve_plan(config, "single_cta", k, dense=True)
    report = plan.report(batch_size=batch, kernel_launches=1)
    engine._stamp_extras(report, config)
    visited = DenseVisited(batch, engine.graph.num_nodes)
    ids, dists = traverse(
        engine, queries, query_keys(queries), plan, visited, config.seed, 0,
        filter_mask, report, seeds,
    )
    report.cta_count += batch
    visited.collect(report)
    indices = (ids[:, :k] & INDEX_MASK).astype(np.uint32)
    return SearchResult(indices=indices, distances=dists[:, :k], report=report)
