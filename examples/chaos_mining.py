"""Fault-tolerance walkthrough: worker kills, checkpoints, and chaos drills.

The story this example tells:

1. install a deterministic fault schedule that murders a worker on every
   other chunk dispatch, mine in parallel anyway, and verify the pool is
   bit-identical to a clean serial run — the engine re-sends each failed
   chunk to a fresh pool (up to three tries, then runs it in the driver),
   and the failures and retries are visible in the metrics afterwards;
2. crash a fusion run mid-flight (an injected raise at round 3), then
   resume it from its checkpoint and watch it replay the uninterrupted
   trajectory exactly;
3. flip one byte of a stored run and catch it with the store's integrity
   verifier.

Everything is driven by the same machinery the CLI exposes as
``REPRO_FAULTS``, ``repro chaos``, ``repro mine --checkpoint/--resume``,
and ``repro store verify``.

Run with ``PYTHONPATH=src python examples/chaos_mining.py``.
"""

import tempfile
from pathlib import Path

from repro import (
    CheckpointManager,
    FaultInjected,
    FaultSchedule,
    set_fault_schedule,
)
from repro.core import PatternFusionConfig, pattern_fusion
from repro.datasets import quest_like
from repro.engine import ParallelExecutor
from repro.obs import metrics


def pool_key(patterns):
    """Order-free exact content of a pool (items + tidsets)."""
    return sorted((p.sorted_items(), p.tidset) for p in patterns)


db = quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=42)
config = PatternFusionConfig(k=10, seed=7)

# ----------------------------------------------------------------------
# 1. Kill a worker on every other chunk dispatch; the answer must not move.
# ----------------------------------------------------------------------
reference = pattern_fusion(db, 6, config, jobs=1)

set_fault_schedule(FaultSchedule.parse("kill@executor.chunk:first=1,every=2"))
try:
    with ParallelExecutor(2) as executor:
        chaotic = pattern_fusion(db, 6, config, executor=executor)
finally:
    set_fault_schedule(None)  # back to whatever $REPRO_FAULTS says

assert pool_key(chaotic.patterns) == pool_key(reference.patterns)
print(f"1. pool survived the kill schedule: {len(chaotic.patterns)} patterns,"
      " bit-identical to the serial reference")
for line in metrics.REGISTRY.render().splitlines():
    if line.startswith(("repro_retries_total", "repro_chunk_failures_total",
                        "repro_faults_injected_total")):
        print(f"   {line}")

# ----------------------------------------------------------------------
# 2. Crash at round 3, resume from the checkpoint, replay the same pool.
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    ckpt = Path(tmp) / "fusion.ckpt"
    set_fault_schedule(FaultSchedule.parse("raise@fusion.round:first=3,times=1"))
    try:
        pattern_fusion(
            db, 6, config, jobs=1, checkpoint=CheckpointManager(ckpt)
        )
    except FaultInjected:
        print(f"2. run crashed at round 3; checkpoint holds "
              f"{ckpt.stat().st_size} bytes of driver state")
    finally:
        set_fault_schedule(None)

    resumed = pattern_fusion(
        db, 6, config, jobs=1, checkpoint=CheckpointManager(ckpt)
    )
    assert pool_key(resumed.patterns) == pool_key(reference.patterns)
    assert not ckpt.exists()  # cleared after the successful finish
    print("   resumed run replayed the uninterrupted pool exactly "
          f"({resumed.iterations} rounds total)")

# ----------------------------------------------------------------------
# 3. Corrupt one stored byte; `store verify` refuses to trust the run.
# ----------------------------------------------------------------------
from repro.store import PatternStore  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    store = PatternStore(Path(tmp) / "pstore")
    run_id = store.save(
        reference.as_mining_result(), db=db, miner="pattern_fusion",
        config={"k": 10, "seed": 7},
    )
    (ok_report,) = store.verify(run_id)
    print(f"3. stored run {run_id}: checks {ok_report['checks']} -> ok")

    binary = next((store.root / "runs").glob("**/patterns.bin"))
    blob = bytearray(binary.read_bytes())
    blob[30] ^= 0xFF  # one flipped bit pattern in the header
    binary.write_bytes(bytes(blob))
    (bad_report,) = store.verify(run_id)
    assert not bad_report["ok"]
    print(f"   after flipping byte 30: verify reports {bad_report['errors']}")
