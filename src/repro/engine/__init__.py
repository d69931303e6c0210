"""Parallel execution engine: worker pools and the executor-scheduled fusion round.

The scalability seam of the reproduction.  Everything here preserves exact
answers — the fusion round produces the same pools for any job count — so
callers opt into parallelism purely as a deployment decision (the ``jobs``
knob), never as an accuracy trade-off.
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

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "map_chunks",
    "split_chunks",
    "worker_payload",
    "fusion_round",
    "FusionTask",
    "parallel_pattern_fusion",
]
