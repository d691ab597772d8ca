"""Core CAGRA algorithms: graph construction, optimization, and search.

The public entry point is :class:`repro.core.index.CagraIndex`; the
submodules here implement its pieces:

* :mod:`repro.core.distances` — metric kernels (L2², inner product, cosine).
* :mod:`repro.core.graph` — the fixed out-degree graph container.
* :mod:`repro.core.nn_descent` — NN-descent initial k-NN graph builder.
* :mod:`repro.core.optimize` — CAGRA graph optimization (reordering,
  reverse-edge merge).
* :mod:`repro.core.search` — the CAGRA search loop's sequential executable
  specification and the cost counters.
* :mod:`repro.core.traversal` — the array-parallel traversal engine
  behind every search entry point (one masked stepping loop over two
  visited backends, fp16 storage, team_size-aware accounting).
* :mod:`repro.core.rng_init` — stateless counter draws keyed on the
  query's bytes, so an answer never depends on its batch position.
* :mod:`repro.core.hashtable` — open-addressing visited-node hash tables.
* :mod:`repro.core.topm` — top-M buffer merge primitives.
* :mod:`repro.core.metrics` — recall, strong connected components,
  2-hop node counts.
* :mod:`repro.core.sharding` — multi-GPU sharding (Sec. IV-C2 / V-E).
* :mod:`repro.core.refine` — full-precision re-ranking of FP16 results.
"""

from repro.core.config import (
    GraphBuildConfig,
    SearchConfig,
    HashTableConfig,
)
from repro.core.graph import FixedDegreeGraph
from repro.core.index import CagraIndex
from repro.core.refine import refine
from repro.core.sharding import ShardQuorumError, ShardedCagraIndex
from repro.core.validation import ValidationReport, validate_index

__all__ = [
    "CagraIndex",
    "FixedDegreeGraph",
    "GraphBuildConfig",
    "SearchConfig",
    "HashTableConfig",
    "ShardQuorumError",
    "ShardedCagraIndex",
    "ValidationReport",
    "refine",
    "validate_index",
]
