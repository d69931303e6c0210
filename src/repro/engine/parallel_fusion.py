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
* Each task is a seed's pool row and child seed, nothing more.  The pool
  — a :class:`~repro.core.pool.Pool`, so its item-id and tidset-word
  arrays, not one object per pattern — the database and the ball radius
  ship with each chunk as the executor's payload; the executor's worker
  processes stay warm across rounds, so a round forks nothing.  A chunk
  answers its seeds' ``r(τ)`` ball queries itself, in one
  :meth:`PatternBallIndex.balls` call over the pool's distinct-tidset
  matrix, built once in the driver and shipped with the pool (pool rows
  and their intersection counts with the seed, see
  :class:`~repro.core.distance.Ball`), so the queries run in parallel
  and no ball crosses the pipe.  Each seed's greedy passes then gather
  its ball's distinct tidsets from that matrix, take the counts as the
  seed's greedy level, and build a pattern only for the seed.
* Per-seed results are merged in seed order (first occurrence of a
  pattern wins).

The pool carries its kind of pattern (:mod:`repro.core.kinds`), which
closes each fused tidset and keys the merge.

:func:`parallel_pattern_fusion` and the ``parallel_pattern_fusion`` miner
are deprecated aliases of :func:`~repro.core.pattern_fusion.pattern_fusion`
and the ``pattern_fusion`` miner, which take ``jobs`` themselves.
"""

from __future__ import annotations

import random
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from repro.api.registry import register
from repro.core.ball_index import PatternBallIndex
from repro.core.config import PatternFusionConfig
from repro.core.distance import Ball
# Not called here (the tasks query through PatternBallIndex); kept as a
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


@dataclass(frozen=True, slots=True)
class FusionTask:
    """One seed's unit of work, shipped to whichever worker picks it up.

    ``seed_index`` is the seed's pool row; its ball is queried where the
    task runs.  ``child_seed`` seeds the task's private RNG.
    """

    seed_index: int
    child_seed: int


@dataclass(frozen=True, slots=True)
class _RoundPayload:
    """Per-round payload: everything a round's tasks share."""

    db: TransactionDatabase
    pool: Pool
    """Ships as its arrays; ``pool.matrix`` holds the tidsets in pool order."""

    radius: float
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


def _query_balls(payload: "_RoundPayload", seeds: list[Pattern]) -> list[Ball]:
    """The seeds' balls, from one ball-index call over the pool."""
    with trace.span("ball_queries", seeds=len(seeds)) as span:
        seed_balls = PatternBallIndex(payload.pool).balls(seeds, payload.radius)
        # Summed ball sizes, seeds included, and the distinct tidsets each
        # seed was compared with: exact work counts whose sums over a round
        # are the same for every jobs value.
        span.set(
            members=sum(len(ball) for ball in seed_balls),
            distinct=len(seeds) * len(payload.pool.distinct),
        )
    return seed_balls


def _fuse_one(
    payload: "_RoundPayload", task: FusionTask, seed: Pattern, ball: Ball
) -> list[Pattern]:
    with trace.span(
        "fuse_ball", pattern_size=int(payload.pool.sizes[task.seed_index]),
        ball=len(ball), seed_index=task.seed_index,
    ) as span:
        fused = fuse_ball(
            payload.db,
            seed,
            ball,
            tau=payload.tau,
            minsup=payload.minsup,
            rng=random.Random(task.child_seed),
            trials=payload.trials,
            max_candidates=payload.max_candidates,
            close_fused=payload.close_fused,
            pool=payload.pool,
            rows=ball.rows,
            seed_row=task.seed_index,
            counts=ball.counts,
            kind=payload.pool.kind,
        )
        span.set(fused=len(fused))
    return fused


def _fuse_task_chunk(chunk: list[FusionTask]) -> list:
    """Worker body: query the chunk's balls, then fuse each seed's ball.

    One ball-index call serves the whole chunk, so its queries share the
    kernel's temporaries.  Returns one entry per task: the fused patterns,
    or — when the driver asked for tracing — a ``(patterns, span_records)``
    pair so the driver can stitch each task's spans into its own trace; the
    first task's records also carry the chunk's ``ball_queries`` span.  The
    per-task envelope (rather than per-chunk) is what lets
    :func:`map_chunks` flatten results without a separate side channel.
    """
    payload: _RoundPayload = worker_payload()
    seeds = payload.pool.patterns_at([task.seed_index for task in chunk])
    if not payload.trace:
        seed_balls = _query_balls(payload, seeds)
        return [
            _fuse_one(payload, *work) for work in zip(chunk, seeds, seed_balls)
        ]
    with trace.capture() as sink:
        seed_balls = _query_balls(payload, seeds)
    results: list = []
    for work in zip(chunk, seeds, seed_balls):
        with trace.capture() as task_sink:
            fused = _fuse_one(payload, *work)
        results.append((fused, sink.drain() + task_sink.drain()))
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
    _SEEDS.inc(n_seeds)
    tasks = [
        FusionTask(seed_index=seed_index, child_seed=child_seed)
        for seed_index, child_seed in zip(seed_indices, child_seeds)
    ]
    # The distinct-tidset index is built here, once, and ships with the
    # pool to every chunk.
    pool.tidset_ids
    payload = _RoundPayload(
        db=db,
        pool=pool,
        radius=radius,
        tau=config.tau,
        minsup=minsup,
        trials=config.fusion_trials,
        max_candidates=config.max_candidates_per_seed,
        close_fused=config.close_fused,
        trace=TRACER.enabled,
    )
    fused_lists = map_chunks(executor, _fuse_task_chunk, tasks, payload)
    key = pool.kind.key
    fused_by_key: dict = {}
    produced = 0
    for entry in fused_lists:
        if payload.trace:
            fused, spans = entry
            TRACER.ingest(spans)
        else:
            fused = entry
        produced += len(fused)
        for pattern in fused:
            fused_by_key.setdefault(key(pattern), pattern)
    _FUSED.inc(produced)
    _DEDUP_DROPPED.inc(produced - len(fused_by_key))
    return list(fused_by_key.values())


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
    under ``parallel_pattern_fusion`` keep run ids and cache keys of their own.
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
