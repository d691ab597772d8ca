"""repro.parallel — worker-pool execution for sharded CAGRA.

The paper's multi-GPU recipe assigns "each GPU ... to process one
sub-graph independently"; this package is the CPU-process analogue: a
:class:`ShardExecutor` fans per-shard builds and searches out across a
process pool, with thread and serial backends as small-input /
Windows-safe fallbacks.  Each worker gets the data its tasks read (the
dataset, or the index's shard list) once, when it starts; one task body
per operation serves every backend, and results are bitwise identical
to the serial path.

Entry points: :class:`~repro.parallel.config.ParallelConfig` (the knob
surface: ``num_workers``, ``backend``), :class:`ShardExecutor`, and the
shard task helpers in :mod:`repro.parallel.shards` that
:class:`~repro.core.sharding.ShardedCagraIndex` builds on.  See
``docs/parallel.md`` for design, backend selection, and how workers get
the shards.
"""

from repro.parallel.config import BACKENDS, ParallelConfig, available_cpus
from repro.parallel.executor import ExecutorStats, ShardExecutor, TaskOutcome
from repro.parallel.shards import (
    ShardPlan,
    build_shards,
    plan_shards,
    search_shards,
)

__all__ = [
    "BACKENDS",
    "ExecutorStats",
    "ParallelConfig",
    "ShardExecutor",
    "ShardPlan",
    "TaskOutcome",
    "available_cpus",
    "build_shards",
    "plan_shards",
    "search_shards",
]
