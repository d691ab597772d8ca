"""Baseline ANNS implementations the paper compares CAGRA against.

All baselines are implemented from scratch, following their source papers
at the fidelity the CAGRA evaluation exercises (Sec. V):

* :mod:`repro.baselines.bruteforce` — exact search (ground truth).
* :mod:`repro.baselines.hnsw` — Hierarchical Navigable Small World
  (Malkov & Yashunin), the CPU state of the art.
* :mod:`repro.baselines.nssg` — Navigating Satellite System Graph (Fu et
  al.), whose construction/search pipeline CAGRA's most resembles.
* :mod:`repro.baselines.ggnn` — GGNN-like GPU method (Groh et al.):
  hierarchical shard-merge construction + per-warp beam search.
* :mod:`repro.baselines.ganns` — GANNS-like GPU method (Yu et al.):
  batched NSW construction + GPU-friendly beam search.

Every search, and every build step that searches (HNSW's and GANNS's
batch insertion, GGNN's linking), runs on CAGRA's own traversal engine at
one parent per step with given seeds
(:func:`repro.baselines.beam.batched_beam_search`) and reports operation
counters compatible with the cost models in :mod:`repro.gpusim`, so
recall–QPS comparisons share one methodology.
"""

from repro.baselines.bruteforce import exact_search
from repro.baselines.beam import BeamCounters
from repro.baselines.hnsw import HnswIndex
from repro.baselines.nssg import NssgIndex, nssg_search
from repro.baselines.ggnn import GgnnIndex
from repro.baselines.ganns import GannsIndex

__all__ = [
    "exact_search",
    "BeamCounters",
    "HnswIndex",
    "NssgIndex",
    "nssg_search",
    "GgnnIndex",
    "GannsIndex",
]
