"""Fault tolerance for the parallel engine, streaming, store, and serving.

Two pieces, individually inert when unused:

* :mod:`repro.resilience.checkpoint` — durable (fsync + atomic replace)
  round/slide checkpoints so a SIGKILL'd fusion or streaming run resumes
  from its last round instead of restarting, reproducing the uninterrupted
  run's pool and run id exactly.  Its
  :func:`~repro.resilience.checkpoint.atomic_write` is also the store's
  one durable writer.
* :mod:`repro.resilience.faults` — the seeded :class:`FaultSchedule`
  (``$REPRO_FAULTS``) that injects kill / delay / raise / corrupt actions
  at named points, deterministically, so recovery is testable instead of
  aspirational (``repro chaos``).

The chunk retry loop that lets ``ParallelExecutor.map_reduce`` survive
worker loss lives next to its one caller, in :mod:`repro.engine.executor`.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    decode_patterns,
    decode_rng,
    encode_patterns,
    encode_rng,
)
from repro.resilience.faults import (
    FaultAction,
    FaultInjected,
    FaultRule,
    FaultSchedule,
    apply_action,
    fault_points,
    schedule,
    set_fault_schedule,
)

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "FaultAction",
    "FaultInjected",
    "FaultRule",
    "FaultSchedule",
    "apply_action",
    "decode_patterns",
    "decode_rng",
    "encode_patterns",
    "encode_rng",
    "fault_points",
    "schedule",
    "set_fault_schedule",
]
