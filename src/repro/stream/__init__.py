"""repro.stream — mutable index lifecycle over the frozen CAGRA artifact.

The paper builds a static graph offline; this package turns it into a
live, continuously updated index (ROADMAP item 1):

* :class:`MutableIndex` — insert/delete/search over any ``AnnIndex``
  base: inserts buffer in an exact memtable (searchable immediately),
  deletes are tombstones AND-ed into the base leg's ``filter_mask``.
* :class:`WriteAheadLog` — JSONL commits + npy segments; replay-on-load
  (:meth:`MutableIndex.open`) bounds loss to the op torn by a crash.
* :class:`StalenessPolicy` — a *measured* break-even between incremental
  repair (``CagraIndex.extend``) and full rebuild, never a hardcoded
  threshold.
* :class:`Rebuilder` — background thread running that decision off the
  serving path, promoting atomically through ``CagraServer.swap_index``.
* :func:`run_mixed_closed_loop` — seeded mixed read/write load shape for
  benchmarks and integration tests.

See ``docs/streaming.md`` for the lifecycle state machine, the WAL
format, and the failure-semantics table.
"""

from repro.stream.loadgen import run_mixed_closed_loop
from repro.stream.memtable import ExactMemtable, MemtableSnapshot
from repro.stream.mutable import MaintenanceReport, MutableIndex, StreamFreshness
from repro.stream.policy import CostModel, RebuildDecision, StalenessPolicy
from repro.stream.rebuild import Rebuilder
from repro.stream.wal import WAL_FAULT_POINT, WalRecord, WalReplay, WriteAheadLog

__all__ = [
    "CostModel",
    "ExactMemtable",
    "MaintenanceReport",
    "MemtableSnapshot",
    "MutableIndex",
    "RebuildDecision",
    "Rebuilder",
    "StalenessPolicy",
    "StreamFreshness",
    "WAL_FAULT_POINT",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
    "run_mixed_closed_loop",
]
