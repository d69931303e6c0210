"""Algorithm 2's round: the one place a fusion round is scheduled.

One fusion round of the paper does independent work per seed — collect the
seed's CoreList with an ``r(τ)`` ball query, then run the randomized greedy
fusion passes over that ball.  :func:`fusion_round` is the only
implementation of that round; :class:`~repro.core.pattern_fusion.PatternFusion`
runs it every iteration, on a :class:`~repro.engine.executor.SerialExecutor`
when no executor is given.  The per-seed work goes through the executor
while the run stays **deterministic for a fixed config.seed** and
**identical across jobs values**:

* Seed draws and the per-seed child seeds are produced on the driver, from
  the algorithm's single RNG, in seed order — before any work is
  distributed.  Each seed's fusion passes then run on a private
  ``random.Random(child_seed)`` (which seeds the passes' PCG64 orders), so
  a worker's stream never depends on which worker it landed on or what ran
  before it.
* Ball queries run on the driver through :meth:`PatternBallIndex.balls`
  over the pool's own tidset matrix, which answers with pool rows
  (:class:`~repro.core.distance.Ball`), and tasks carry only those row
  arrays.  The pool — a :class:`~repro.core.pool.Pool`, so its item-id and
  tidset-word arrays, not one object per pattern — and the database ship
  once per round as the executor's warm-up payload, not per task; each
  task gathers its ball's rows from the pool matrix instead of packing
  them again, and builds a pattern only for its seed.  Because
  the pool evolves, each round re-warms the worker processes — effectively
  free under the ``fork`` start method (copy-on-write), but on
  spawn-only platforms every round pays worker interpreter startup, so
  expect ``jobs > 1`` to help there only when rounds are expensive.
* Per-seed results are merged in seed order (first occurrence of an itemset
  wins).

:func:`parallel_pattern_fusion` and the ``parallel_pattern_fusion`` miner
are deprecated aliases of :func:`~repro.core.pattern_fusion.pattern_fusion`
and the ``pattern_fusion`` miner, which take ``jobs`` themselves.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.registry import register
from repro.core.ball_index import PatternBallIndex
from repro.core.config import PatternFusionConfig
from repro.core.distance import Ball
# Not called here (the round queries through PatternBallIndex); kept as a
# module attribute because the perfbench layer tracer patches it by name.
from repro.core.distance import balls  # noqa: F401
from repro.core.fusion import fuse_ball
from repro.core.pattern_fusion import FusionMiner, PatternFusionResult, pattern_fusion
from repro.core.pool import Pool
from repro.db.transaction_db import TransactionDatabase
from repro.engine.executor import Executor, map_chunks, worker_payload
from repro.mining.results import Pattern
from repro.obs import metrics, trace
from repro.obs.trace import TRACER
from repro.resilience.checkpoint import CheckpointManager

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "fusion_round",
    "FusionTask",
    "parallel_pattern_fusion",
    "ParallelFusionMiner",
]

# Child seeds are drawn from the driver RNG in this range; 63 bits keeps
# them exact ints everywhere and disjoint from the "no seed" sentinel.
_CHILD_SEED_BITS = 63

# Per-round counters.  Telemetry is execution-only: nothing here feeds run
# identity or touches the algorithm's RNG stream.  Fused-pattern counts
# accumulate on the *driver* as results come back — worker-side increments
# would be invisible to a scrape.
_SEEDS = metrics.counter(
    "repro_fusion_seeds_total", "Seeds drawn across all fusion rounds"
)
_FUSED = metrics.counter(
    "repro_fusion_fused_patterns_total",
    "Super-patterns produced by fuse_ball before dedup",
)
_DEDUP_DROPPED = metrics.counter(
    "repro_fusion_dedup_dropped_total",
    "Fused patterns dropped as duplicates within a round",
)


@dataclass(frozen=True, slots=True, eq=False)
class FusionTask:
    """One seed's unit of work, shipped to whichever worker picks it up.

    ``rows`` is the seed's ball as ascending pool rows, the seed's own row
    among them.  It is an array, so tasks compare by identity.
    """

    seed_index: int
    rows: np.ndarray
    child_seed: int


@dataclass(frozen=True, slots=True)
class _RoundPayload:
    """Per-round warm-up payload: everything tasks share, shipped once."""

    db: TransactionDatabase
    pool: Pool
    """Ships as its arrays; ``pool.matrix`` holds the tidsets in pool order."""

    tau: float
    minsup: int
    trials: int
    max_candidates: int
    close_fused: bool

    trace: bool = False
    """Whether the driver had tracing enabled when the round started.
    Workers cannot see the driver's tracer (separate processes), so this
    flag tells them to capture spans locally and return them alongside each
    task's result for driver-side :meth:`~repro.obs.trace.Tracer.ingest`."""


def _fuse_one(payload: "_RoundPayload", task: FusionTask) -> list[Pattern]:
    seed = payload.pool[task.seed_index]
    members = Ball(payload.pool, task.rows)
    with trace.span(
        "fuse_ball", pattern_size=seed.size, ball=len(members),
        seed_index=task.seed_index,
    ) as span:
        fused = fuse_ball(
            payload.db,
            seed,
            members,
            tau=payload.tau,
            minsup=payload.minsup,
            rng=random.Random(task.child_seed),
            trials=payload.trials,
            max_candidates=payload.max_candidates,
            close_fused=payload.close_fused,
            matrix=payload.pool.matrix,
            rows=task.rows,
            seed_row=task.seed_index,
        )
        span.set(fused=len(fused))
    return fused


def _fuse_task_chunk(chunk: list[FusionTask]) -> list:
    """Worker body: run the fusion passes for each task in the chunk.

    Returns one entry per task: the fused patterns, or — when the driver
    asked for tracing — a ``(patterns, span_records)`` pair so the driver
    can stitch each task's spans into its own trace.  The per-task envelope
    (rather than per-chunk) is what lets :func:`map_chunks` flatten results
    without a separate side channel.
    """
    payload: _RoundPayload = worker_payload()
    results: list = []
    for task in chunk:
        if payload.trace:
            with trace.capture() as sink:
                fused = _fuse_one(payload, task)
            results.append((fused, sink.drain()))
        else:
            results.append(_fuse_one(payload, task))
    return results


def fusion_round(
    db: TransactionDatabase,
    pool: Pool,
    radius: float,
    rng: random.Random,
    config: PatternFusionConfig,
    minsup: int,
    executor: Executor,
) -> list[Pattern]:
    """One round of Algorithm 2 over ``pool``: K seeds → balls → fused patterns.

    Consumes exactly ``1 + n_seeds`` draws from ``rng`` (the seed sample and
    the child seeds), regardless of the executor's job count — the
    invariant behind cross-jobs pool equality.
    """
    n_seeds = min(config.k, len(pool))
    seed_indices = rng.sample(range(len(pool)), k=n_seeds)
    child_seeds = [rng.randrange(1 << _CHILD_SEED_BITS) for _ in seed_indices]
    centers = pool.patterns_at(seed_indices)
    with trace.span("ball_queries", seeds=n_seeds) as query_span:
        index = PatternBallIndex(pool)
        seed_balls = index.balls(centers, radius)
        # Summed ball sizes, seeds included: an exact work count, the same
        # for every jobs value.
        query_span.set(members=sum(len(ball) for ball in seed_balls))
    _SEEDS.inc(n_seeds)
    tasks = [
        FusionTask(seed_index=seed_index, rows=ball.rows, child_seed=child_seed)
        for seed_index, ball, child_seed in zip(
            seed_indices, seed_balls, child_seeds
        )
    ]
    payload = _RoundPayload(
        db=db,
        pool=pool,
        tau=config.tau,
        minsup=minsup,
        trials=config.fusion_trials,
        max_candidates=config.max_candidates_per_seed,
        close_fused=config.close_fused,
        trace=TRACER.enabled,
    )
    fused_lists = map_chunks(executor, _fuse_task_chunk, tasks, payload)
    fused_by_items: dict[frozenset[int], Pattern] = {}
    produced = 0
    for entry in fused_lists:
        if payload.trace:
            fused, spans = entry
            TRACER.ingest(spans)
        else:
            fused = entry
        produced += len(fused)
        for pattern in fused:
            fused_by_items.setdefault(pattern.items, pattern)
    _FUSED.inc(produced)
    _DEDUP_DROPPED.inc(produced - len(fused_by_items))
    return list(fused_by_items.values())


def parallel_pattern_fusion(
    db: TransactionDatabase,
    minsup: float | int,
    config: PatternFusionConfig | None = None,
    jobs: int = 1,
    initial_pool: Sequence[Pattern] | None = None,
    executor: Executor | None = None,
    checkpoint: CheckpointManager | None = None,
) -> PatternFusionResult:
    """Deprecated alias of :func:`~repro.core.pattern_fusion.pattern_fusion`.

    Returns the identical result: ``pattern_fusion`` takes ``jobs`` and
    ``executor`` itself and always schedules through :func:`fusion_round`.
    """
    warnings.warn(
        "parallel_pattern_fusion is deprecated; call pattern_fusion(..., jobs=N)",
        DeprecationWarning,
        stacklevel=2,
    )
    return pattern_fusion(
        db, minsup, config, initial_pool=initial_pool, executor=executor,
        checkpoint=checkpoint, jobs=jobs,
    )


@register
class ParallelFusionMiner(FusionMiner):
    """Deprecated registry alias of the ``pattern_fusion`` miner.

    Same config type and same pools; only the name differs, so runs stored
    under ``parallel_pattern_fusion`` keep their run ids and cache hits.
    """

    name = "parallel_pattern_fusion"
    summary = "deprecated alias of pattern_fusion"

    def __init__(self, *args, **kwargs):
        warnings.warn(
            "the parallel_pattern_fusion miner is deprecated; "
            "use pattern_fusion (it takes jobs)",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(*args, **kwargs)
