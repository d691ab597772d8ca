"""The array-parallel traversal engine behind every CAGRA search entry point.

:class:`TraversalEngine` runs the paper's search (Sec. IV, Fig. 6) as **one
masked stepping loop** (:meth:`TraversalEngine._traverse`) in which all live
queries advance one hop per vectorized step: ① top-M merge, ② parent
selection + neighbor gather, ③ first-visit distance evaluation all run on a
``(live_queries, ...)`` array slab.  A query retires its buffer on the step
it finishes, so every step only pays for the queries still walking.

The loop talks to the visited table, and to the top-M buffer whose
representation the backend owns, only through a seam (``probe``,
``candidates``, ``empty``, ``merge``, ``selectable``, ``mark_parents``,
``decode``, ``end_step``, ``collect``; docs/traversal.md has the table),
and ``mode`` picks the object behind it:

* ``mode="reference"`` — :class:`_HashSlab`, a row-parallel emulation of the
  real open-addressing hash tables, bit-exact against the sequential
  specification (:func:`repro.core.search._greedy_core`): per-slot probe
  counts, full-table saturation, forgettable resets with top-M
  re-registration, ``min_iterations`` re-seeding, and multi-CTA worker
  passes sharing one table per query; ``(ids, dists)`` buffers.
* ``mode="fast"`` — :class:`_DenseVisited`, an exact dense boolean table with
  flat hash accounting (standard-table behaviour, ``min_iterations``
  ignored) and a top-M of packed keys that stays sorted across steps.

The engine also owns the fp16 dataset path (``precision="fp16"`` stores the
vectors half-precision; distances still accumulate in fp32, matching the
CUDA kernels' ``half2`` loads) and threads ``team_size``/``dtype_bytes``
into ``CostReport.extras`` so :meth:`repro.gpusim.GpuCostModel.search_time`
prices distance work per point.

Every random draw — step ⓪'s seeds and the ``min_iterations`` re-seeds —
is :func:`repro.core.rng_init.counter_draws` keyed on ``(seed, query
bytes, worker, step)``, in both backends and in the sequential spec, so an
answer never depends on the query's batch position, chunk or batch mates.

Functions marked :func:`hot_path` form the hot loop; lint rule RL007
forbids per-query Python ``for`` loops inside them (loops over lanes,
workers or probe steps are fine — their trip counts don't grow with the
batch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import HashTableConfig, SearchConfig, choose_algo
from repro.core.distances import as_storage_dtype, gathered_distances
from repro.core.graph import INDEX_MASK, PARENT_FLAG, FixedDegreeGraph
from repro.core.hashtable import (
    ForgettableHashTable,
    StandardHashTable,
    standard_table_log2_size,
)
from repro.core.rng_init import counter_draws, query_keys
from repro.core.search import (
    CostReport,
    SearchResult,
    _collect_hash_counters,
    _greedy_core,
)
from repro.core.topm import (
    INF_ORDER_BITS,
    bitonic_comparator_count,
    float32_from_order_bits,
    float32_order_bits,
    merge_topm,
    sort_strategy,
)
from repro.core.validation import validate_request

__all__ = [
    "TraversalEngine",
    "hot_path",
    "search_batch_fast",
]

#: Supported dataset storage precisions.
PRECISIONS = ("fp32", "fp16")

#: Empty-slot sentinel and Knuth multiplicative constant — identical to
#: :mod:`repro.core.hashtable` so slab probes land in the same slots.
_EMPTY = np.uint32(0xFFFFFFFF)
_HASH_MULT = 0x9E3779B9
_KEY_MASK = 0xFFFFFFFF

#: Budget for per-chunk traversal state (bytes); chunks are sized so the
#: per-row slab — visited/hash slots, top-M buffer, candidate lanes — stays
#: below it.  The gather block of ``gathered_distances`` (a constant few
#: hundred KiB — vectors at the storage width, their compute-width copy and
#: the matching queries — whatever the batch) rides on top.
_VISITED_BUDGET_BYTES = 256 * 1024 * 1024

#: Below this many queries, reference mode runs the sequential spec
#: (:func:`repro.core.search._greedy_core`) per query instead of the hash
#: slab: the slab's cost is nearly flat in batch size (whole-batch numpy
#: calls) while the scalar loop's grows linearly, so the two cross.  The
#: value is the measured crossover (``benchmarks/bench_ext_traversal.py``,
#: rows in ``BENCH_traversal.json``).  Outputs and counters are
#: bitwise-identical either way (the parity tests pin both against the
#: same fixture) — this is purely a latency dispatch, mirroring how CAGRA
#: itself picks single- vs multi-CTA by batch size.
_SCALAR_REFERENCE_ROWS = 16


def hot_path(fn):
    """Mark a function as part of the traversal hot loop.

    RL007 rejects per-query Python ``for`` loops inside marked functions:
    everything that scales with the batch must be a whole-array operation.
    """
    fn.__hot_path__ = True
    return fn


# ----------------------------------------------------------------------
# helpers shared by both backends
# ----------------------------------------------------------------------
def _first_occurrence_rows(ids: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value within its row.

    The reference path feeds candidates one by one through the hash
    table, so when a node id appears twice in the same gather only the
    first occurrence reports "new" (one distance computation, one hash
    insertion).  The lockstep path must dedupe the same way *before*
    consulting the visited table, or intra-gather duplicates are
    double-counted.

    One in-place sort of ``value << lane_bits | lane`` per row: equal
    values end up adjacent with their lanes ascending, so every key that
    repeats its left neighbour's value is a non-first occurrence — and
    only those (few) lanes are scattered back.  Values must fit ``64 -
    lane_bits`` bits (node ids stop at ``INDEX_MASK``, 31 bits).
    """
    width = ids.shape[1]
    lane_bits = np.uint64((width - 1).bit_length())
    keys = ids.astype(np.uint64)
    keys <<= lane_bits
    keys |= np.arange(width, dtype=np.uint64)
    keys.sort(axis=1)
    values = keys >> lane_bits
    repeat = np.zeros(ids.shape, dtype=bool)
    np.equal(values[:, 1:], values[:, :-1], out=repeat[:, 1:])
    at = np.flatnonzero(repeat)  # flat (row, sorted position)
    lane_mask = (np.uint64(1) << lane_bits) - np.uint64(1)
    lanes = (keys.reshape(-1)[at] & lane_mask).astype(np.intp)
    first = np.ones(ids.shape, dtype=bool)
    first.reshape(-1)[at - at % width + lanes] = False
    return first


def _pick_parents(selectable: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Step ②'s choice: the first ``p`` selectable positions of each row.

    Returns ``(positions, picked)``, both ``(rows, p)``.  A row with fewer
    than ``p`` selectable entries fills up with its first unselectable
    positions, ``picked`` False there.  ``p = 1`` is one ``argmax``; wider
    picks sort ``unselectable << lane_bits | lane`` per row — the keys are
    distinct, so it needs no stable argsort.
    """
    if p == 1:
        return selectable.argmax(axis=1, keepdims=True), selectable.any(axis=1, keepdims=True)
    width = selectable.shape[1]
    lane_bits = (width - 1).bit_length()
    lanes = np.arange(width, dtype=np.uint32)
    keys = np.where(selectable, lanes, lanes | np.uint32(1 << lane_bits))
    keys.sort(axis=1)
    head = keys[:, :p]
    picked = head < np.uint32(1 << lane_bits)
    return (head & np.uint32((1 << lane_bits) - 1)).astype(np.intp), picked


def _charge_iteration_sort(
    report: CostReport, counts: np.ndarray, unit: int, itopk: int
) -> None:
    """Meter step ①'s sort+merge for the live lockstep queries.

    ``counts[i]`` live rows merge ``i * unit`` candidates this step: the
    reference path charges with the actual gather size, which drops below
    ``search_width * degree`` when a query has fewer unparented top-M
    entries than ``search_width`` — so must we.
    """
    for length, count in zip(range(0, len(counts) * unit, unit), counts.tolist()):
        if not (length and count):  # distinct lengths, not queries
            continue
        if sort_strategy(length) == "warp_bitonic":
            report.sort_comparator_ops += count * bitonic_comparator_count(length)
        else:
            report.radix_sorted_elements += count * length
        merged = itopk + length
        report.sort_comparator_ops += count * (
            bitonic_comparator_count(merged) // max(1, merged.bit_length()) * 2
        )


def _merge_rows_reference(
    topm_ids: np.ndarray,
    topm_dists: np.ndarray,
    cand_ids: np.ndarray,
    cand_dists: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-parallel :func:`repro.core.topm.merge_topm` for the hash-slab
    backend.

    Unlike the dense merges this keeps the scalar merge's exact
    semantics: ties break by concatenation position (not bare id), and a
    *real* id with an infinite distance survives with its id — the
    reference search does expand such nodes, so erasing them would fork
    the trajectory.  Only duplicate occurrences (a bare id's non-first
    copy) are dropped, becoming dummy entries when they land in the
    output.
    """
    ids = np.concatenate([topm_ids, cand_ids], axis=1).astype(np.uint32)
    dists = np.concatenate([topm_dists, cand_dists], axis=1).astype(np.float64)
    if ids.shape[1] < m:
        pad = m - ids.shape[1]
        ids = np.concatenate(
            [ids, np.full((ids.shape[0], pad), INDEX_MASK, dtype=np.uint32)], axis=1
        )
        dists = np.concatenate([dists, np.full((ids.shape[0], pad), np.inf)], axis=1)
    bare = (ids & INDEX_MASK).astype(np.int64)
    dup = ~_first_occurrence_rows(bare)
    key = np.where(dup, np.inf, dists)
    position = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
    # Primary: distance (dups pushed to +inf).  Secondary: non-dups first.
    # Tertiary: original position — the scalar merge's stable tie-break.
    order = np.lexsort((position, dup, key), axis=1)[:, :m]
    out_ids = np.take_along_axis(ids, order, axis=1)
    out_dists = np.take_along_axis(key, order, axis=1)
    out_dup = np.take_along_axis(dup, order, axis=1)
    out_ids = np.where(out_dup, INDEX_MASK, out_ids)
    return out_ids.astype(np.uint32), out_dists


# ----------------------------------------------------------------------
# visited backends (the seam the stepping loop talks through)
# ----------------------------------------------------------------------
@dataclass
class _Pairs:
    """A top-M buffer, or a step's candidate lanes, as ``(ids, dists)``."""

    ids: np.ndarray
    dists: np.ndarray

    def __getitem__(self, rows) -> "_Pairs":
        return _Pairs(self.ids[rows], self.dists[rows])


class _PairBuffers:
    """The seam's top-M half for :class:`_Pairs` buffers (ids carry
    ``PARENT_FLAG``, a dummy is ``INDEX_MASK``), merged by ``_merge_pairs``."""

    _merge_pairs = staticmethod(_merge_rows_reference)

    @staticmethod
    @hot_path
    def empty(rows: int, m: int) -> _Pairs:
        return _Pairs(np.full((rows, m), INDEX_MASK, dtype=np.uint32), np.full((rows, m), np.inf))

    @hot_path
    def candidates(self, ids, lane_usable, at, nodes, found) -> _Pairs:
        """Every lane: non-first visits ``+inf``, unusable lanes dummies —
        they sort after every real entry, so they never perturb a buffer
        (unlike a real id at ``+inf``, which the reference keeps and
        later expands)."""
        dists = np.full(ids.shape, np.inf, dtype=found.dtype)
        dists.reshape(-1)[at] = found
        return _Pairs(np.where(lane_usable, ids, INDEX_MASK), dists)

    @hot_path
    def merge(self, topm: _Pairs, cand: _Pairs, m: int) -> _Pairs:
        return _Pairs(*self._merge_pairs(topm.ids, topm.dists, cand.ids, cand.dists, m))

    @hot_path
    def selectable(self, topm: _Pairs) -> np.ndarray:
        return topm.ids < INDEX_MASK  # flagged entries and dummies are not

    @hot_path
    def mark_parents(self, topm: _Pairs, positions, picked) -> np.ndarray:
        """Flag the picked entries; their node ids, node 0 (a stand-in whose
        lanes the loop marks unusable) where not picked."""
        rows = np.arange(len(positions))[:, None]
        entries = topm.ids[rows, positions]
        topm.ids[rows, positions] = np.where(picked, entries | PARENT_FLAG, entries)
        return np.where(picked, entries & INDEX_MASK, 0)

    @hot_path
    def decode(self, topm: _Pairs) -> tuple[np.ndarray, np.ndarray]:
        return topm.ids, topm.dists


class _HashSlab(_PairBuffers):
    """Row-parallel emulation of per-query open-addressing hash tables.

    Row ``i`` of ``slots`` is query ``i``'s table.  Inserts advance every
    row's probe sequence in lockstep, so the verdicts *and* the counters
    (one lookup per started sequence, one probe per inspected slot, silent
    "seen" after ``size`` probes of a full table) match feeding the same
    keys one at a time through
    :class:`repro.core.hashtable.StandardHashTable`.  With a
    ``reset_interval`` the rows behave like
    :class:`repro.core.hashtable.ForgettableHashTable`, and the slab also
    keeps the ever-computed set that turns forgotten-then-revisited nodes
    into ``recomputed_distances``.

    Every method takes ``row_ids`` — the table row of each live-slab row —
    so the loop can retire rows from its slab without the table ever
    shrinking.
    """

    def __init__(
        self, rows: int, num_nodes: int, log2_size: int, reset_interval: int = 0
    ):
        self.log2_size = log2_size
        self.size = 1 << log2_size
        self._mask = self.size - 1
        self.slots = np.full((rows, self.size), _EMPTY, dtype=np.uint32)
        self.reset_interval = reset_interval
        # Recomputed distances require the table to forget; with a standard
        # table "fresh" implies "never computed", so the ever-computed slab
        # only exists in forgettable mode.
        self._ever = (
            np.zeros((rows, num_nodes), dtype=bool) if reset_interval else None
        )
        self._since_reset = np.zeros(rows, dtype=np.int64)
        self.lookups = 0
        self.probes = 0
        self.insertions = 0
        self.resets = 0
        self.recomputed = 0

    @hot_path
    def _insert_lane(
        self, row_ids: np.ndarray, keys: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """One ``StandardHashTable.insert`` per active row, in lockstep.

        Returns the per-row "was new" mask (False on inactive rows).  The
        probe loop below runs once per *probe step*, not per query: all
        still-unresolved rows inspect their next slot together.
        """
        fresh = np.zeros(keys.shape[0], dtype=bool)
        if not active.any():
            return fresh
        keys = keys.astype(np.uint32, copy=False)
        self.lookups += int(active.sum())
        product = (keys.astype(np.uint64) * np.uint64(_HASH_MULT)) & np.uint64(
            _KEY_MASK
        )
        slot = (product >> np.uint64(32 - self.log2_size)).astype(np.int64)
        unresolved = active.copy()
        for _ in range(self.size):  # probe steps, capped at table size
            if not unresolved.any():
                break
            self.probes += int(unresolved.sum())
            r = np.flatnonzero(unresolved)
            s = slot[r]
            v = self.slots[row_ids[r], s]
            empty = v == _EMPTY
            found = v == keys[r]
            if empty.any():
                re = r[empty]
                self.slots[row_ids[re], s[empty]] = keys[re]
                self.insertions += int(empty.sum())
                fresh[re] = True
            resolved = empty | found
            unresolved[r[resolved]] = False
            stuck = r[~resolved]
            slot[stuck] = (s[~resolved] + 1) & self._mask
        return fresh

    @hot_path
    def probe(
        self, row_ids: np.ndarray, ids: np.ndarray, lane_usable: np.ndarray
    ) -> np.ndarray:
        """Insert ``(rows, W)`` ids; flat (row, lane) positions of the
        first visits.

        Lanes run in key order per row (the warp-serialized order the
        reference uses), each lane vectorized across all rows.
        """
        fresh = np.zeros(ids.shape, dtype=bool)
        for lane in range(ids.shape[1]):  # lane loop (width), not per-query
            fresh[:, lane] = self._insert_lane(
                row_ids, ids[:, lane], lane_usable[:, lane]
            )
        if self._ever is not None:
            hit_rows = np.broadcast_to(row_ids[:, None], ids.shape)[fresh]
            hit_ids = ids[fresh]
            self.recomputed += int(self._ever[hit_rows, hit_ids].sum())
            self._ever[hit_rows, hit_ids] = True
        return np.flatnonzero(fresh)

    @hot_path
    def end_step(self, row_ids: np.ndarray, topm: _Pairs, expanded: np.ndarray) -> None:
        """``ForgettableHashTable.maybe_reset`` for the rows that expanded
        parents this step (a re-seed step ``continue``s past the hook in
        the reference): every ``reset_interval`` such steps the row forgets
        everything except its current top-M bare ids (dummies skipped).
        """
        if not self.reset_interval:
            return
        self._since_reset[row_ids] += expanded
        due = expanded & (self._since_reset[row_ids] >= self.reset_interval)
        if not due.any():
            return
        due_rows = row_ids[due]
        self._since_reset[due_rows] = 0
        self.slots[due_rows] = _EMPTY
        self.resets += due_rows.size
        bare = topm.ids[due] & INDEX_MASK
        for lane in range(bare.shape[1]):  # top-M lanes, not per-query
            self._insert_lane(due_rows, bare[:, lane], bare[:, lane] != INDEX_MASK)

    def collect(self, report: CostReport) -> None:
        _collect_hash_counters(report, self)
        report.recomputed_distances += self.recomputed


#: Dense top-M key: ``float32_order_bits(distance) << 32 | bare id << 1 |
#: parent bit``.  A dummy (empty or ``+inf``) slot has every low bit set:
#: odd, so never selectable, sorted after every finite key, and its id
#: bits decode to ``INDEX_MASK``.
_HALF = np.uint64(32)
_ONE = np.uint64(1)
_DUMMY_KEY = np.uint64(INF_ORDER_BITS) << _HALF | np.uint64(0xFFFFFFFF)


class _DenseVisited:
    """Exact dense boolean visited table with flat hash accounting, and a
    packed top-M buffer.

    One lookup per usable lane, a flat two probes per lookup (the one
    documented modelling difference from the real probe sequences), one
    insertion per first visit; it never forgets, so there is nothing to do
    at the end of a step and nothing is ever recomputed.

    The top-M is one sorted key per entry (:data:`_DUMMY_KEY`), merged by
    one sort, parent-marked by setting bit 0 (the key moves past no other)
    and decoded once, when its row retires.  Sort-only is sound because
    the table is exact: a row's finite keys carry distinct bare ids.
    float32 distances only; ``-0.0`` comes back ``+0.0``; no NaN.
    """

    def __init__(self, rows: int, num_nodes: int):
        self.table = np.zeros((rows, num_nodes), dtype=bool)
        self.lookups = 0
        self.insertions = 0

    @hot_path
    def probe(
        self, row_ids: np.ndarray, ids: np.ndarray, lane_usable: np.ndarray
    ) -> np.ndarray:
        """Flat (row, lane) positions of the first visits: one table lookup
        over the usable lanes, then repeats among the unseen ones (a node
        twice in one gather is first-visited by its first lane)."""
        # Flat cell offsets: numpy gathers and scatters through one 1-D
        # index about twice as fast as through a broadcast (row, lane) pair.
        cells = (ids + (row_ids * self.table.shape[1])[:, None]).reshape(-1)
        table = self.table.reshape(-1)
        if lane_usable.all():  # every row picked p parents
            at = np.flatnonzero(~table.take(cells))
            self.lookups += cells.size
        else:
            usable = np.flatnonzero(lane_usable)
            at = usable[~table.take(cells[usable])]
            self.lookups += usable.size
        cells = cells[at]
        ordered = np.sort(cells)
        if (ordered[1:] == ordered[:-1]).any():
            cells, first = np.unique(cells, return_index=True)  # stable: first lane
            at = at[first]
        table[cells] = True
        self.insertions += at.size
        return at

    def end_step(self, row_ids, topm, expanded) -> None:
        """Nothing to forget."""

    def collect(self, report: CostReport) -> None:
        report.hash_lookups += self.lookups
        report.hash_probes += 2 * self.lookups
        report.hash_insertions += self.insertions

    @staticmethod
    @hot_path
    def empty(rows: int, m: int) -> np.ndarray:
        return np.full((rows, m), _DUMMY_KEY, dtype=np.uint64)

    @hot_path
    def candidates(self, ids, lane_usable, at, nodes, found) -> np.ndarray:
        """The keys of ``nodes`` (at flat lanes ``at``) in a dummy-key slab;
        ``found`` is consumed, and a ``+inf`` (filtered-out) one is a dummy."""
        bits = float32_order_bits(found)
        keys = bits.astype(np.uint64)
        keys <<= _HALF
        keys |= nodes.astype(np.uint64) << _ONE
        keys[bits >= INF_ORDER_BITS] = _DUMMY_KEY
        cand = np.full(ids.shape, _DUMMY_KEY, dtype=np.uint64)
        cand.reshape(-1)[at] = keys
        return cand

    @hot_path
    def merge(self, topm: np.ndarray, cand: np.ndarray, m: int) -> np.ndarray:
        keys = np.concatenate([topm, cand], axis=1)
        keys.sort(axis=1)
        return keys[:, :m]

    @hot_path
    def selectable(self, topm: np.ndarray) -> np.ndarray:
        return (topm & _ONE) == 0  # parented keys and dummies are odd

    @hot_path
    def mark_parents(self, topm: np.ndarray, positions, picked) -> np.ndarray:
        """As :meth:`_PairBuffers.mark_parents`, setting the parent bit."""
        rows = np.arange(len(positions))[:, None]
        entries = topm[rows, positions]
        topm[rows, positions] = entries | picked
        return np.where(picked, entries >> _ONE & np.uint64(INDEX_MASK), 0)

    @hot_path
    def decode(self, topm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bare ids (a dummy ``INDEX_MASK``) and float32 distances."""
        bits = (topm >> _HALF).astype(np.uint32)
        return topm.astype(np.uint32) >> 1, float32_from_order_bits(bits)


class _DenseWide(_PairBuffers, _DenseVisited):
    """The dense table with :class:`_Pairs` buffers, for float64 distances,
    which do not pack beside an id: the packed keys' order — (distance,
    bare id), every ``+inf`` a dummy — from a two-key lexsort."""

    @staticmethod
    def _merge_pairs(topm_ids, topm_dists, cand_ids, cand_dists, m):
        dists = np.concatenate([topm_dists, cand_dists], axis=1)
        ids = np.concatenate([topm_ids, cand_ids], axis=1)
        ids = np.where(np.isinf(dists), INDEX_MASK, ids)
        order = np.lexsort((ids & INDEX_MASK, dists), axis=1)[:, :m]
        return np.take_along_axis(ids, order, axis=1), np.take_along_axis(dists, order, axis=1)


# ----------------------------------------------------------------------
# the search plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SearchPlan:
    """Everything one search call derives from ``(config, algo, k)``.

    ``passes`` worker passes of the same loop run back to back, each with
    an ``itopk``-entry list expanding ``search_width`` parents per step,
    all sharing one visited table per query (worker ``w`` draws its seeds
    on counter ``w``); their buffers merge into a ``merged_itopk`` list.
    Single-CTA is the one-pass case, multi-CTA the narrow many-pass one
    (Sec. IV-C2).
    """

    algo: str
    #: Exact dense visited table (``mode="fast"``) instead of a hash slab.
    dense: bool
    itopk: int
    search_width: int
    passes: int
    merged_itopk: int
    max_iterations: int
    min_iterations: int
    hash_log2_size: int
    #: Forgettable reset period; 0 for a standard (never-forgetting) table.
    reset_interval: int
    #: float64 distances (a float64 dataset): dense buffers stay pairs.
    wide: bool = False

    @property
    def hash_in_shared(self) -> bool:
        """Table II: the forgettable table is the shared-memory one."""
        return self.reset_interval > 0

    def report(self, **counts) -> CostReport:
        return CostReport(
            algo=self.algo,
            hash_in_shared=self.hash_in_shared,
            hash_log2_size=self.hash_log2_size,
            **counts,
        )

    def visited(self, rows: int, num_nodes: int) -> "_HashSlab | _DenseVisited":
        """A fresh visited backend for ``rows`` queries."""
        if self.dense:
            return (_DenseWide if self.wide else _DenseVisited)(rows, num_nodes)
        return _HashSlab(rows, num_nodes, self.hash_log2_size, self.reset_interval)

    def scalar_table(self) -> StandardHashTable:
        """The sequential specification's table for this plan."""
        if self.reset_interval:
            return ForgettableHashTable(
                self.hash_log2_size, reset_interval=self.reset_interval
            )
        return StandardHashTable(self.hash_log2_size)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class TraversalEngine:
    """One array-parallel stepping loop for all CAGRA search mappings.

    Owns the (possibly fp16-quantized) dataset and the graph; ``search``
    picks the visited backend from ``mode`` (and, in reference mode, the
    single- or multi-CTA mapping per the Fig. 7 rule) and runs the one
    loop over it.
    """

    def __init__(
        self,
        data: np.ndarray,
        graph: FixedDegreeGraph,
        metric: str = "sqeuclidean",
        precision: str = "fp32",
    ):
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
        self.graph = graph
        self.metric = metric
        self.precision = precision
        # fp32 keeps the caller's array untouched (bitwise parity with the
        # pre-engine paths, including float64 datasets); fp16 quantizes
        # storage while distances still accumulate in fp32.
        self.data = (
            as_storage_dtype(data, "float16")
            if precision == "fp16"
            else np.asarray(data)
        )

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        config: SearchConfig | None = None,
        mode: str = "fast",
        num_sms: int = 108,
        filter_mask: np.ndarray | None = None,
        seeds: np.ndarray | None = None,
    ) -> SearchResult:
        """Batched k-ANN search.

        ``mode="reference"`` runs the hash-faithful backend (per-query
        open-addressing tables, single- or multi-CTA per the Fig. 7 rule);
        ``mode="fast"`` runs the dense lockstep backend.

        ``seeds`` (fast mode only), a ``(batch, s)`` id array, replaces
        step ⓪'s counter draws (and ``random_inits``) with row ``i``'s
        entry points: the baselines' beam (``docs/traversal.md``).
        """
        if mode not in ("reference", "fast"):
            raise ValueError(f"mode must be 'reference' or 'fast', got {mode!r}")
        dense = mode == "fast"
        config = config or SearchConfig()
        queries, filter_mask = validate_request(
            queries, k, self.data.shape[1], size=self.graph.num_nodes, filter_mask=filter_mask
        )
        if seeds is not None:
            if not dense:
                raise ValueError("seeds are only accepted in fast mode")
            seeds = np.asarray(seeds)
            if seeds.shape[:1] != (len(queries),) or seeds.ndim != 2 or seeds.size == 0:
                raise ValueError(f"seeds must have shape ({len(queries)}, s >= 1)")
            if seeds.dtype.kind not in "iu":
                raise ValueError(f"seeds must be integer node ids, got {seeds.dtype}")
            if seeds.min() < 0 or seeds.max() >= self.graph.num_nodes:
                raise ValueError(f"seed ids must lie in [0, {self.graph.num_nodes})")
            seeds = seeds.astype(np.uint32)
        if not dense and k > config.itopk:
            raise ValueError(f"k={k} exceeds itopk={config.itopk}")
        batch = queries.shape[0]
        algo = "single_cta" if dense else choose_algo(config, batch, num_sms=num_sms)
        plan = self._resolve_plan(config, algo, k, dense=dense)

        total = plan.report(batch_size=batch, kernel_launches=1)
        self._stamp_extras(total, config)
        indices = np.empty((batch, k), dtype=np.uint32)
        distances = np.empty((batch, k), dtype=np.float64)
        keys = query_keys(queries)
        if not dense and batch < _SCALAR_REFERENCE_ROWS:
            # Latency dispatch: tiny batches can't amortize the slab's
            # whole-batch numpy calls, so run the sequential spec instead
            # (bitwise-identical outputs and counters).
            for i in range(batch):
                indices[i], distances[i], report = self._scalar_search(
                    queries[i], k, plan, config.seed, keys[i], filter_mask
                )
                total.merge_from(report)
            return SearchResult(indices=indices, distances=distances, report=total)
        chunk = self._chunk_rows(plan)
        for start in range(0, batch, chunk):  # memory-bounded chunks
            rows = slice(start, start + chunk)
            ids, dists = self._run_chunk(
                queries[rows], keys[rows], k, plan, config.seed, filter_mask, total,
                None if seeds is None else seeds[rows],
            )
            indices[rows] = ids
            distances[rows] = dists
        return SearchResult(indices=indices, distances=distances, report=total)

    # ------------------------------------------------------------------
    # plan resolution
    # ------------------------------------------------------------------
    def _resolve_plan(
        self, config: SearchConfig, algo: str, k: int, dense: bool = False
    ) -> _SearchPlan:
        """The one place the loop shape and hash policy are derived.

        Table II defaults: forgettable/shared-memory table for single-CTA,
        standard/device-memory table for multi-CTA.  The dense backend has
        no hash policy of its own — it is accounted as the single-CTA
        default whatever ``config.hash_table`` says, and it ignores
        ``min_iterations``.
        """
        max_iter = config.resolved_max_iterations()
        merged_itopk = max(config.itopk, k)
        if algo == "single_cta":
            itopk, search_width, passes = merged_itopk, config.search_width, 1
            hash_config = HashTableConfig(
                kind="forgettable", log2_size=11, reset_interval=2
            )
            if config.hash_table is not None and not dense:
                hash_config = config.hash_table
        else:
            # cuVS launches enough 32-wide workers to cover the requested
            # internal top-M; same rule, with a floor of 2 (one worker
            # would just be a narrow single-CTA search).  Each worker keeps
            # a 32-entry list and expands one parent (Sec. IV-C2: p = 1).
            passes = config.cta_per_query or max(
                2, (max(config.itopk, 32) + 31) // 32
            )
            itopk, search_width = 32, 1
            hash_config = config.hash_table or HashTableConfig(
                kind="standard", log2_size=13
            )
            if hash_config.kind != "standard":
                raise ValueError(
                    "multi-CTA requires the standard (device-memory) hash table"
                )
        if hash_config.kind == "forgettable":
            log2, reset_interval = hash_config.log2_size, hash_config.reset_interval
        else:
            log2 = max(
                hash_config.log2_size,
                standard_table_log2_size(
                    max_iter, search_width * passes, self.graph.degree
                ),
            )
            reset_interval = 0
        return _SearchPlan(
            algo=algo,
            dense=dense,
            itopk=itopk,
            search_width=search_width,
            passes=passes,
            merged_itopk=merged_itopk,
            max_iterations=max_iter,
            min_iterations=0 if dense else config.min_iterations,
            hash_log2_size=log2,
            reset_interval=reset_interval,
            wide=self.data.dtype == np.float64,
        )

    # ------------------------------------------------------------------
    # sequential small-batch arm (the executable spec, per query)
    # ------------------------------------------------------------------
    def _scalar_search(
        self,
        query: np.ndarray,
        k: int,
        plan: _SearchPlan,
        seed: int,
        key: np.uint64,
        filter_mask: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, CostReport]:
        """:meth:`_run_chunk` for one query on the sequential spec: the
        plan's worker passes share one table and merge when there are
        several (multi-CTA)."""
        table = plan.scalar_table()
        report = plan.report(cta_count=plan.passes)
        workers = [
            _greedy_core(
                self.data, self.graph, query, plan.itopk, plan.search_width,
                plan.max_iterations, plan.min_iterations, table, seed, key,
                worker, self.metric, report, filter_mask=filter_mask,
            )
            for worker in range(plan.passes)  # sequential worker CTAs
        ]
        _collect_hash_counters(report, table)
        ids, dists = workers[0]
        if plan.passes > 1:
            ids, dists = merge_topm(
                np.concatenate([ids for ids, _ in workers]),
                np.concatenate([dists for _, dists in workers]),
                np.empty(0, dtype=np.uint32),
                np.empty(0),
                plan.merged_itopk,
            )
        return (ids[:k] & INDEX_MASK).astype(np.uint32), dists[:k].copy(), report

    # ------------------------------------------------------------------
    # array-parallel arm: one chunk, one loop, two visited backends
    # ------------------------------------------------------------------
    def _run_chunk(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        k: int,
        plan: _SearchPlan,
        seed: int,
        filter_mask: np.ndarray | None,
        report: CostReport,
        seeds: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All of ``plan``'s worker passes for one memory-bounded chunk.

        The visited table persists across the passes, so a later worker
        sees everything earlier workers visited — the paper's shared
        device-memory table.
        """
        rows = queries.shape[0]
        visited = plan.visited(rows, self.graph.num_nodes)
        workers = [
            self._traverse(queries, keys, plan, visited, seed, w, filter_mask, report, seeds)
            for w in range(plan.passes)  # sequential worker CTAs, not per-query
        ]
        report.cta_count += rows * plan.passes
        visited.collect(report)
        ids, dists = workers[0]
        if plan.passes > 1:
            ids, dists = _merge_rows_reference(
                np.concatenate([ids for ids, _ in workers], axis=1),
                np.concatenate([dists for _, dists in workers], axis=1),
                np.empty((rows, 0), dtype=np.uint32),
                np.empty((rows, 0)),
                plan.merged_itopk,
            )
        return (ids[:, :k] & INDEX_MASK).astype(np.uint32), dists[:, :k]

    @hot_path
    def _traverse(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        plan: _SearchPlan,
        visited,
        seed: int,
        worker: int,
        filter_mask: np.ndarray | None,
        report: CostReport,
        seeds: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Worker ``worker``'s greedy pass for all rows; returns the final
        top-M buffers.

        *The* stepping loop: everything that distinguishes the two modes
        is behind ``visited`` (see the module docstring).  ``row_ids[i]`` is
        the query / key / visited-table row that live-slab row ``i``
        serves, and queries and keys are only read through it.  A row
        retires into the output buffers on the step it finishes (nothing
        left to expand), so a retirement copies only the top-M slab and
        ``row_ids`` — never ``visited``, which may be shared with other
        worker passes.  Retired rows contribute nothing to any counter.
        """
        n = self.graph.num_nodes
        degree = self.graph.degree
        itopk = plan.itopk
        p = plan.search_width
        width = p * degree
        total_rows = queries.shape[0]
        out_ids = np.empty((total_rows, itopk), dtype=np.uint32)
        out_dists = np.empty((total_rows, itopk), dtype=np.float64)
        row_ids = np.arange(total_rows, dtype=np.int64)

        # ⓪ the given entry points, else step 0 of each query's counter draws.
        if seeds is None:
            seeds = counter_draws(seed, keys, worker, 0, width, n)
            report.random_inits += total_rows * width
        cand = self._first_visits(
            visited,
            row_ids,
            queries,
            seeds,
            np.ones(seeds.shape, dtype=bool),
            filter_mask,
            report,
        )
        topm = visited.empty(total_rows, itopk)
        # counts[i] rows merge i * unit candidates at the next step.
        counts, unit = np.array([0, total_rows]), seeds.shape[1]

        iteration = 0
        while iteration < plan.max_iterations and row_ids.size:
            iteration += 1
            report.iterations += row_ids.size
            _charge_iteration_sort(report, counts, unit, itopk)

            # ① merge the candidates into the top-M buffer.
            topm = visited.merge(topm, cand, itopk)

            # Rows with no unparented entry left finish — unless converged
            # before min_iterations: then they re-seed with fresh random
            # nodes (the kernel's slack iterations).
            selectable = visited.selectable(topm)
            expanding = selectable.any(axis=1)
            reseeding = iteration < plan.min_iterations
            if not (reseeding or expanding.all()):
                done = ~expanding
                out_ids[row_ids[done]], out_dists[row_ids[done]] = visited.decode(topm[done])
                topm, row_ids = topm[expanding], row_ids[expanding]
                if not row_ids.size:
                    break
                selectable, expanding = selectable[expanding], expanding[expanding]

            # ② flag the best p unparented entries and gather their neighbors.
            positions, picked = _pick_parents(selectable, p)
            parents = visited.mark_parents(topm, positions, picked)
            cand_ids = self.graph.neighbors.take(parents, axis=0).reshape(row_ids.size, width)
            lane_usable = np.repeat(picked, degree, axis=1)
            picks = picked.sum(axis=1)
            report.candidate_gathers += int(picks.sum()) * degree
            if reseeding and not expanding.all():
                # NB: the reference meters random_inits at ⓪ only — reseed
                # draws (step ``iteration``) aren't counted.
                reseed = ~expanding
                cand_ids[reseed] = counter_draws(
                    seed, keys[row_ids[reseed]], worker, iteration, width, n
                )
                lane_usable[reseed] = True
                picks[reseed] = p  # sorts a full candidate list
            counts, unit = np.bincount(picks), degree

            # ③ first-time-only distance computation.
            cand = self._first_visits(
                visited, row_ids, queries, cand_ids, lane_usable, filter_mask, report
            )
            visited.end_step(row_ids, topm, expanding)

        out_ids[row_ids], out_dists[row_ids] = visited.decode(topm)
        return out_ids, out_dists

    @hot_path
    def _first_visits(
        self,
        visited,
        row_ids: np.ndarray,
        queries: np.ndarray,
        ids: np.ndarray,
        lane_usable: np.ndarray,
        filter_mask: np.ndarray | None,
        report: CostReport,
    ):
        """Step ③: distances for first-visited nodes only.

        The backend's first visits are flat (slab row, lane) positions,
        scored as flat (query row, node) pairs, so the gather and the
        reduction touch exactly the ``distance_computations`` vectors the
        report is charged for.  Filtered-out nodes score ``+inf``.  Returns
        the backend's merge-ready candidates.
        """
        at = visited.probe(row_ids, ids, lane_usable)
        nodes = ids.reshape(-1)[at]
        found = gathered_distances(
            self.data,
            queries,
            nodes[:, None],
            self.metric,
            query_rows=row_ids[at // ids.shape[1]],
        )[:, 0]
        if filter_mask is not None:
            found[~filter_mask[nodes]] = np.inf
        report.distance_computations += nodes.size
        report.skipped_distance_computations += int(np.count_nonzero(lane_usable)) - nodes.size
        return visited.candidates(ids, lane_usable, at, nodes, found)

    # ------------------------------------------------------------------
    # sizing, accounting
    # ------------------------------------------------------------------
    @staticmethod
    def _slab_bytes_per_row(width: int, itopk: int) -> int:
        """Bytes one live slab row keeps resident at a step's peak, its
        visited-table row aside: about 40 a candidate lane (gathered ids,
        usable mask, table cells and their positions, packed keys), and
        per top-M entry its key, selectable bit and retirement copy, plus
        the merge's concatenation over ``itopk + width`` keys.  Gathered
        vectors are **not** per row: ``gathered_distances`` holds one
        constant-size block at a time, so neither ``dim`` nor the storage
        width moves the chunk size.
        """
        return 40 * width + 17 * itopk + 8 * (itopk + width)

    def _chunk_rows(self, plan: _SearchPlan) -> int:
        """Rows per chunk so one chunk's visited table + slab fit the budget."""
        n = self.graph.num_nodes
        if plan.dense:
            table = n
        else:  # uint32 slots, plus the ever-computed slab when forgettable
            table = 4 * (1 << plan.hash_log2_size) + (n if plan.reset_interval else 0)
        width = plan.search_width * self.graph.degree
        per_row = table + self._slab_bytes_per_row(width, plan.itopk)
        return max(1, _VISITED_BUDGET_BYTES // per_row)

    def _stamp_extras(self, report: CostReport, config: SearchConfig) -> None:
        """Record the knobs the GPU cost model prices per-point.

        ``team_size`` 0 means "auto from dim" and is resolved by
        ``GpuCostModel.search_time`` itself; ``dtype_bytes`` is the
        *storage* width (2 for fp16), which scales simulated DRAM traffic
        and load-waste.
        """
        report.extras["team_size"] = config.team_size
        report.extras["dtype_bytes"] = int(self.data.dtype.itemsize)
        report.extras["precision"] = self.precision


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def search_batch_fast(
    data: np.ndarray,
    graph: FixedDegreeGraph,
    queries: np.ndarray,
    k: int,
    config: SearchConfig | None = None,
    metric: str = "sqeuclidean",
    filter_mask: np.ndarray | None = None,
) -> SearchResult:
    """Lockstep single-CTA-semantics search over a whole query batch.

    Functional form of ``TraversalEngine.search(mode="fast")`` for callers
    that don't hold an engine; building an index-level engine (see
    ``CagraIndex.search_fast``) amortizes the fp16 conversion instead.
    """
    config = config or SearchConfig()
    engine = TraversalEngine(data, graph, metric=metric, precision=config.precision)
    return engine.search(queries, k, config=config, mode="fast", filter_mask=filter_mask)
