"""Parallel execution engine: sharded databases, worker pools, batched queries.

The scalability seam of the reproduction.  Everything here preserves exact
answers — sharding merges to the same supports, the executor-scheduled
fusion round produces the same pools for any job count — so callers opt into parallelism
purely as a deployment decision (``jobs``/``shards`` knobs), never as an
accuracy trade-off.
"""

from repro.engine.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    map_chunks,
    split_chunks,
    worker_payload,
)
from repro.engine.parallel_fusion import (
    FusionTask,
    fusion_round,
    parallel_pattern_fusion,
)
from repro.engine.sharding import (
    PARTITIONERS,
    ShardedDatabase,
    round_robin_partition,
    size_balanced_partition,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "map_chunks",
    "split_chunks",
    "worker_payload",
    "ShardedDatabase",
    "PARTITIONERS",
    "round_robin_partition",
    "size_balanced_partition",
    "fusion_round",
    "FusionTask",
    "parallel_pattern_fusion",
]
