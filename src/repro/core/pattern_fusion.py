"""Pattern-Fusion: Algorithms 1 and 2 of the paper.

Phase 1 mines the complete set of frequent patterns up to a small size (the
initial pool); phase 2 iterates: draw K random seeds from the pool, collect
each seed's CoreList with a ``r(τ)``-radius ball query in pattern-distance
space (Theorem 2), fuse every ball into super-patterns
(:mod:`repro.core.fusion`), and make the fused patterns the next pool.  The
loop ends when the pool has at most K patterns.

Every pool the loop holds is a :class:`~repro.core.pool.Pool`: item-id and
tidset-word arrays.  Phase 1 mines its pool straight into those arrays
(:func:`repro.mining.levelwise.mine_pool`), so the hundreds of thousands of
phase-1 patterns never become Python objects; each later round packs its
fused patterns into one with :meth:`Pool.from_patterns`.  Elitism, the size
signature, the fixpoint test and the per-round stats read the arrays.

This module owns the loop (Algorithm 1); each round of Algorithm 2 is
:func:`repro.engine.parallel_fusion.fusion_round`, the only implementation
of it.  The round's per-seed work runs on an
:class:`~repro.engine.executor.Executor` — a ``SerialExecutor`` unless one
is given or ``jobs > 1`` — and the pool is the same for every job count.

Termination is argued by Lemma 5 (the minimum pattern size in the pool never
decreases) together with the shrinking of support sets under fusion; the
implementation additionally stops on pool fixpoints and after
``max_iterations``, and — like any bounded-time run of a randomized
algorithm — finally truncates to the K largest patterns if the guard fired
with more than K still in the pool.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # engine imports this module; keep the cycle lazy
    from repro.engine.executor import Executor

from repro.api.base import Capabilities, Miner, MinerConfig
from repro.api.registry import register
from repro.core.config import PatternFusionConfig
from repro.core.distance import ball_radius
from repro.core.pool import Pool
# Not called here (the round is repro.engine.parallel_fusion.fusion_round);
# re-exported because the perfbench layer tracer patches these names on
# this module.
from repro.core.distance import balls  # noqa: F401
from repro.core.fusion import fuse_ball  # noqa: F401
from repro.db import dataset_fingerprint
from repro.db.transaction_db import TransactionDatabase
from repro.mining.levelwise import mine_pool
from repro.mining.results import MiningResult, Pattern, largest_patterns
from repro.obs import clock, metrics, trace
from repro.resilience.checkpoint import (
    CheckpointManager,
    decode_patterns,
    decode_rng,
    encode_patterns,
    encode_rng,
)
from repro.resilience.faults import schedule as fault_schedule

__all__ = [
    "IterationStats",
    "PatternFusionResult",
    "pattern_fusion",
    "PatternFusion",
    "PatternFusionMinerConfig",
    "FusionMiner",
]


# Loop counters/histograms (the per-round ones live with the round in
# repro.engine.parallel_fusion).  Telemetry is execution-only: nothing here
# feeds run identity or touches the algorithm's RNG stream.
_ROUNDS = metrics.counter(
    "repro_fusion_rounds_total", "Fusion rounds executed (Algorithm 2 calls)"
)
_INITIAL_POOL_SECONDS = metrics.histogram(
    "repro_fusion_initial_pool_seconds", "Phase-1 initial-pool mining latency"
)
_ROUND_SECONDS = metrics.histogram(
    "repro_fusion_round_seconds", "Per-round latency of Algorithm 2"
)


@dataclass(frozen=True, slots=True)
class IterationStats:
    """Telemetry for one round of Algorithm 2 (used by tests and reports)."""

    iteration: int
    pool_size_before: int
    pool_size_after: int
    min_pattern_size: int
    max_pattern_size: int
    seeds_drawn: int


@dataclass(slots=True)
class PatternFusionResult:
    """Outcome of a Pattern-Fusion run.

    ``patterns`` is the final pool (≤ K patterns unless the iteration guard
    truncated it — then exactly K).  ``history`` records one entry per
    iteration, in order; its ``min_pattern_size`` series is non-decreasing
    (Lemma 5), which the property tests assert.
    """

    patterns: list[Pattern]
    config: PatternFusionConfig
    minsup: int
    initial_pool_size: int
    iterations: int
    elapsed_seconds: float
    history: list[IterationStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patterns)

    def as_mining_result(self) -> MiningResult:
        """Adapter so evaluation code treats this like any miner's output."""
        return MiningResult(
            algorithm="pattern-fusion",
            minsup=self.minsup,
            patterns=list(self.patterns),
            elapsed_seconds=self.elapsed_seconds,
        )

    def largest(self, k: int = 1) -> list[Pattern]:
        return largest_patterns(self.patterns, k)


def pattern_fusion(
    db: TransactionDatabase,
    minsup: float | int,
    config: PatternFusionConfig | None = None,
    initial_pool: Sequence[Pattern] | None = None,
    executor: "Executor | None" = None,
    checkpoint: CheckpointManager | None = None,
    jobs: int = 1,
) -> PatternFusionResult:
    """Run Pattern-Fusion end to end (the paper's Algorithm 1).

    Parameters
    ----------
    db:
        The transaction database.
    minsup:
        Relative (float in (0,1]) or absolute (int ≥ 1) minimum support.
    config:
        Algorithm parameters; defaults to :class:`PatternFusionConfig()`.
    initial_pool:
        Optional pre-mined pool (phase 1 output): a list of patterns or a
        :class:`~repro.core.pool.Pool`.  When omitted, the complete set of
        frequent patterns of size ≤ ``config.initial_pool_max_size`` is
        mined here.
    executor:
        Optional :class:`repro.engine.executor.Executor` (a warm pool reused
        across runs) that each round's per-seed work is scheduled through;
        it takes precedence over ``jobs`` and stays open.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`.  When given,
        driver state (pool, RNG cursor, iteration bookkeeping) is durably
        persisted every ``checkpoint.interval`` rounds and a matching
        checkpoint on disk resumes the run mid-loop — reproducing the
        uninterrupted run's pool (and hence its run id) exactly.
    jobs:
        Worker processes for a run without ``executor``; the executor made
        from it is closed before returning.  The result is deterministic in
        ``config.seed`` and identical for every ``jobs`` value.

    Returns
    -------
    PatternFusionResult
        Final pool, per-iteration telemetry, and provenance.
    """
    from repro.engine.executor import make_executor

    owns_executor = executor is None
    if owns_executor:
        executor = make_executor(jobs)
    try:
        return PatternFusion(
            db, minsup, config, executor=executor, checkpoint=checkpoint
        ).run(initial_pool=initial_pool)
    finally:
        if owns_executor:
            executor.close()


class PatternFusion:
    """Stateful runner exposing the paper's two phases separately.

    ``mine_initial_pool()`` then ``run(initial_pool=...)`` lets experiments
    reuse one pool across many K/τ settings (as Figures 7 and 8 do).
    Rounds run on ``executor``, or in-process on a ``SerialExecutor`` when
    it is omitted; the pool is the same either way.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        minsup: float | int,
        config: PatternFusionConfig | None = None,
        executor: "Executor | None" = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        self.db = db
        self.config = config or PatternFusionConfig()
        self.minsup = db.absolute_minsup(minsup)
        self.executor = executor
        self.checkpoint = checkpoint

    def mine_initial_pool(self) -> Pool:
        """Phase 1: the complete set of patterns up to the configured size."""
        with trace.span(
            "initial_pool", max_size=self.config.initial_pool_max_size
        ) as span, _INITIAL_POOL_SECONDS.time():
            pool = mine_pool(
                self.db, self.minsup, self.config.initial_pool_max_size
            )
            span.set(pool_size=len(pool))
        return pool

    def run(
        self, initial_pool: Sequence[Pattern] | None = None
    ) -> PatternFusionResult:
        """Phase 2: iterate Algorithm 2 until the pool fits in K patterns."""
        from repro.engine.executor import SerialExecutor
        from repro.engine.parallel_fusion import fusion_round

        config = self.config
        executor = self.executor if self.executor is not None else SerialExecutor()
        rng = random.Random(config.seed)
        start = clock.monotonic()
        faults = fault_schedule()
        checkpoint = self.checkpoint
        if checkpoint is not None and checkpoint.identity is None:
            checkpoint.identity = self._checkpoint_identity()
        resumed = checkpoint.load() if checkpoint is not None else None
        with trace.span(
            "pattern_fusion", minsup=self.minsup, k=config.k, tau=config.tau,
            resumed=resumed is not None,
        ) as root:
            if resumed is not None:
                # Mid-loop state of the interrupted run: phase 1 is skipped
                # and the RNG cursor continues exactly where it stopped, so
                # the remaining rounds replay the uninterrupted trajectory.
                pool = Pool.from_patterns(decode_patterns(resumed["pool"]))
                initial_size = resumed["initial_size"]
                iteration = resumed["iteration"]
                stagnant = resumed["stagnant"]
                signature = tuple(
                    (int(size), int(count)) for size, count in resumed["signature"]
                )
                history = [IterationStats(**entry) for entry in resumed["history"]]
                rng.setstate(decode_rng(resumed["rng"]))
            else:
                pool = (
                    Pool.from_patterns(initial_pool)
                    if initial_pool is not None
                    else self.mine_initial_pool()
                )
                initial_size = len(pool)
                history = []
                iteration = 0
                stagnant = 0
                signature = pool.size_signature()
            radius = ball_radius(config.tau)
            while len(pool) > config.k and iteration < config.max_iterations:
                iteration += 1
                faults.fire("fusion.round")
                before = len(pool)
                with trace.span(
                    "fusion_round", iteration=iteration, pool_size=before
                ) as round_span, _ROUND_SECONDS.time():
                    fused = fusion_round(
                        self.db, pool, radius, rng, config, self.minsup, executor
                    )
                    round_span.set(pool_size_after=len(fused))
                _ROUNDS.inc()
                if not fused:
                    break
                if config.elitism:
                    fused = _with_elite(fused, pool, config.k)
                new_pool = Pool.from_patterns(fused)
                fixpoint = new_pool.same_itemsets(pool)
                pool = new_pool
                history.append(_stats(iteration, before, pool, config.k))
                if fixpoint:
                    break  # iterating further cannot change anything
                new_signature = pool.size_signature()
                if new_signature == signature:
                    stagnant += 1
                    if stagnant >= config.stagnation_rounds:
                        break  # saturated: sizes stopped evolving
                else:
                    stagnant = 0
                    signature = new_signature
                if checkpoint is not None:
                    checkpoint.offer(
                        lambda: self._checkpoint_state(
                            pool, rng, iteration, stagnant, signature,
                            history, initial_size,
                        )
                    )
            if len(pool) > config.k:
                # Guard fired with an oversized pool: keep the K most colossal.
                patterns = pool.largest(config.k)
            else:
                patterns = list(pool)
            root.set(iterations=iteration, final_pool=len(patterns))
        if checkpoint is not None:
            checkpoint.clear()
        return PatternFusionResult(
            patterns=patterns,
            config=config,
            minsup=self.minsup,
            initial_pool_size=initial_size,
            iterations=iteration,
            elapsed_seconds=clock.monotonic() - start,
            history=history,
        )

    def _checkpoint_identity(self) -> dict:
        """What run a checkpoint belongs to: algorithm knobs + dataset.

        Execution-only knobs (jobs, executor choice) are naturally absent —
        they live outside :class:`PatternFusionConfig` — and every executor
        runs the same round, so a run may resume under a different worker
        count and still replay bit-identically.
        """
        return {
            "algorithm": "pattern_fusion",
            "config": asdict(self.config),
            "minsup": self.minsup,
            "dataset": dataset_fingerprint(self.db),
        }

    def _checkpoint_state(
        self,
        pool: Pool,
        rng: random.Random,
        iteration: int,
        stagnant: int,
        signature: tuple[tuple[int, int], ...],
        history: list[IterationStats],
        initial_size: int,
    ) -> dict:
        """The complete mid-loop driver state, JSON-shaped."""
        return {
            "kind": "fusion",
            "pool": encode_patterns(pool),
            "rng": encode_rng(rng.getstate()),
            "iteration": iteration,
            "stagnant": stagnant,
            "signature": [list(pair) for pair in signature],
            "initial_size": initial_size,
            "history": [asdict(entry) for entry in history],
        }


@dataclass(frozen=True, slots=True)
class PatternFusionMinerConfig(MinerConfig, PatternFusionConfig):
    """Unified-API config: every :class:`PatternFusionConfig` knob + ``minsup``
    + ``jobs``.

    Flattening (rather than nesting the algorithm config) is what lets the
    CLI address every knob uniformly (``--set tau=0.4``) and keeps the JSON
    round trip a plain dict.  :meth:`fusion_config` projects back to the
    algorithm's own config type; validation is inherited, so an invalid knob
    still fails at construction time.
    """

    # Pools are identical for every jobs value.
    EXECUTION_KNOBS = ("jobs",)

    minsup: float | int = 2
    jobs: int = 1

    def __post_init__(self) -> None:
        # Explicit base call: zero-arg super() is broken inside slots=True
        # dataclasses (the decorator rebuilds the class, orphaning the
        # __class__ cell).
        PatternFusionConfig.__post_init__(self)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def fusion_config(self) -> PatternFusionConfig:
        """The algorithm-level config (drops the driver-level knobs)."""
        from dataclasses import fields

        return PatternFusionConfig(
            **{f.name: getattr(self, f.name) for f in fields(PatternFusionConfig)}
        )


@register
class FusionMiner(Miner):
    """Unified-API adapter over :func:`pattern_fusion`.

    Bit-identical to ``pattern_fusion(db, minsup, config, jobs=jobs)``; the
    pool is a function of ``config.seed`` alone, identical for every
    ``jobs`` value.  An explicitly supplied warm ``executor`` takes
    precedence over ``jobs`` (the experiment runners reuse one across sweep
    points).
    """

    name = "pattern_fusion"
    summary = "Pattern-Fusion colossal mining (per-seed work over jobs workers)"
    capabilities = Capabilities(colossal=True, parallel=True)
    config_type = PatternFusionMinerConfig

    def __init__(self, config=None, *, executor: "Executor | None" = None, **overrides):
        super().__init__(config, **overrides)
        self.executor = executor

    def fuse(
        self,
        db: TransactionDatabase,
        initial_pool: Sequence[Pattern] | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> PatternFusionResult:
        """Run and return the full result (history, iteration telemetry)."""
        config: PatternFusionMinerConfig = self.config  # type: ignore[assignment]
        return pattern_fusion(
            db,
            config.minsup,
            config.fusion_config(),
            initial_pool=initial_pool,
            executor=self.executor,
            checkpoint=checkpoint,
            jobs=config.jobs,
        )

    def mine(self, db: TransactionDatabase) -> MiningResult:
        return self.fuse(db).as_mining_result()


def _with_elite(
    fused: list[Pattern], old_pool: Pool, k: int
) -> list[Pattern]:
    """Carry the ``k`` largest patterns of the old pool into the new one.

    Keeps recovery monotone: a colossal pattern found once cannot be lost to
    an unlucky seed draw later (see PatternFusionConfig.elitism).
    """
    merged: dict[frozenset[int], Pattern] = {p.items: p for p in fused}
    for pattern in old_pool.largest(k):
        merged.setdefault(pattern.items, pattern)
    return list(merged.values())


def _stats(iteration: int, before: int, pool: Pool, k: int) -> IterationStats:
    return IterationStats(
        iteration=iteration,
        pool_size_before=before,
        pool_size_after=len(pool),
        min_pattern_size=int(pool.sizes.min()),
        max_pattern_size=int(pool.sizes.max()),
        seeds_drawn=min(k, before),
    )
