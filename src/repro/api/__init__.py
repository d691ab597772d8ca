"""Unified index API: one contract for every ANN backend.

The paper's evaluation (Fig. 12, Table II) is a head-to-head of CAGRA
against HNSW, GGNN, GANNS, and NSSG; this package is the repo-side
analogue — a single typed surface that lets the serving layer, the CLI,
and the bench harness drive any of them interchangeably:

* :class:`AnnIndex` — the runtime-checkable protocol
  (``dim`` / ``metric`` / ``size`` /
  ``search(queries, k, *, filter_mask=None) -> SearchResult``);
* :class:`SearchRequest` / :class:`SearchResult` — frozen value objects
  with the int32/float32 + trailing-``INDEX_MASK`` padding contract;
* :mod:`repro.api.kinds` — one declaration per index kind (native
  class, adapter, builder, archive codec) that everything below reads;
* :func:`build_index` / :class:`BuildSpec` — the ``--index-kind``
  factory over :data:`INDEX_KINDS`;
* :func:`load_index` / :func:`save_index` / :func:`sniff_format` — one
  ``.npz`` per index at exactly the given path, kind-sniffed on load;
* :func:`as_ann_index` + the adapter classes — wrap native indexes
  without disturbing their paper-figure signatures;
* :func:`validate_request` — the one copy of the request checks (k,
  dim, finite rows, ``filter_mask``), called at every public search
  entry from the engine up to the router;
* :class:`StageRecorder` / :class:`StageEvent` — the
  ``on_stage(name, seconds, counters)`` instrumentation hook threaded
  through core, sharded, and serving search paths.

See ``docs/API.md`` ("repro.api") for the full contract tables.
"""

from repro.api.adapters import (
    AnnIndexAdapter,
    BruteForceIndex,
    CagraAnnIndex,
    GannsAnnIndex,
    GgnnAnnIndex,
    HnswAnnIndex,
    NssgAnnIndex,
    ShardedCagraAnnIndex,
    as_ann_index,
)
from repro.api.factory import INDEX_KINDS, BuildSpec, build_from_spec, build_index
from repro.api.instrumentation import StageEvent, StageRecorder, stage_timer
from repro.api.kinds import (
    UnknownIndexFormatError,
    load_ann_index,
    load_index,
    save_index,
    sniff_format,
)
from repro.api.protocol import AnnIndex
from repro.api.results import SearchRequest, SearchResult, normalize_results
from repro.core.validation import validate_request

__all__ = [
    "AnnIndex",
    "AnnIndexAdapter",
    "BruteForceIndex",
    "BuildSpec",
    "CagraAnnIndex",
    "GannsAnnIndex",
    "GgnnAnnIndex",
    "HnswAnnIndex",
    "INDEX_KINDS",
    "NssgAnnIndex",
    "SearchRequest",
    "SearchResult",
    "ShardedCagraAnnIndex",
    "StageEvent",
    "StageRecorder",
    "UnknownIndexFormatError",
    "as_ann_index",
    "build_from_spec",
    "build_index",
    "load_ann_index",
    "load_index",
    "normalize_results",
    "save_index",
    "sniff_format",
    "stage_timer",
    "validate_request",
]
