"""Streaming experiment: the incremental driver vs a cold run on every slide.

Replays a Diag⁺-style stream — the diagonal-explosion rows first, then the
planted colossal block — through a sliding window, and at every slide runs
both drivers:

* **incremental** — :class:`repro.streaming.IncrementalPatternFusion`
  (phase 1 mined cold on every slide, the fused pool carried, Algorithm 2
  re-run only on invalidation), and
* **full** — a cold :func:`repro.core.pattern_fusion.pattern_fusion` on the
  slide's window snapshot (phase 1 re-mined from scratch), with the same
  per-slide seed.

Whenever the incremental driver re-fuses, its pool must be bit-identical to
the cold run (the subsystem's core guarantee); the ``agree`` column records
that check, and the timing columns show what carrying the fused pool buys.
The largest-pattern trajectory captures the drift story: the window starts
inside the diagonal explosion and ends on the colossal block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import PatternFusionConfig
from repro.core.pattern_fusion import PatternFusion
from repro.datasets.diag import diag_plus
from repro.engine.executor import make_executor
from repro.experiments.base import ExperimentResult
from repro.api import get_miner_spec
from repro.streaming.incremental import slide_seed
from repro.streaming.sources import ReplaySource

__all__ = ["StreamReplayConfig", "run"]


@dataclass(frozen=True)
class StreamReplayConfig:
    """Scale knobs for the streaming replay experiment."""

    n: int = 16
    """Diagonal size: the stream opens with Diag_n's n rows."""
    extra_rows: int = 12
    """Planted-block rows arriving after the diagonal."""
    extra_width: int = 14
    """Planted-block width (the colossal pattern the stream drifts toward)."""
    window: int = 20
    """Sliding-window capacity."""
    batch: int = 4
    """Transactions per slide."""
    minsup: int = 5
    """Absolute minimum support within the window."""
    k: int = 8
    tau: float = 0.5
    pool_max_size: int = 2
    seed: int = 0
    policy: str = "auto"


def run(config: StreamReplayConfig | None = None, jobs: int = 1) -> ExperimentResult:
    """Replay the stream, timing incremental vs full per slide."""
    config = config or StreamReplayConfig()
    fusion_config = PatternFusionConfig(
        k=config.k,
        tau=config.tau,
        initial_pool_max_size=config.pool_max_size,
        seed=config.seed,
    )
    rows = [sorted(row) for row in diag_plus(
        config.n, config.extra_rows, config.extra_width
    ).transactions]
    result = ExperimentResult(
        experiment_id="stream",
        title="Streaming: incremental Pattern-Fusion vs per-slide cold re-mining",
        columns=(
            "slide", "window", "largest", "refused",
            "incremental s", "full s", "speedup", "agree",
        ),
    )
    incremental_total = 0.0
    full_total = 0.0
    stream_spec = get_miner_spec("stream_fusion")
    with make_executor(jobs) as executor:
        miner = stream_spec.cls(
            minsup=config.minsup,
            window=config.window,
            policy=config.policy,
            k=config.k,
            tau=config.tau,
            initial_pool_max_size=config.pool_max_size,
            seed=config.seed,
            executor=executor,
        )
        driver = miner.driver
        for index, batch in enumerate(ReplaySource(rows, config.batch)):
            stats = driver.slide(batch)
            snapshot = driver.window.snapshot()
            cold_config = fusion_config.reseeded(
                slide_seed(fusion_config.seed, index)
            )
            started = time.perf_counter()
            cold = PatternFusion(
                snapshot, stats.minsup, cold_config, executor=executor
            ).run()
            full_seconds = time.perf_counter() - started
            agree = None
            if stats.refused:
                agree = [
                    (p.items, p.tidset) for p in driver.patterns
                ] == [(p.items, p.tidset) for p in cold.patterns]
            incremental_total += stats.seconds
            full_total += full_seconds
            result.add_row(
                index,
                stats.window_size,
                stats.largest_size,
                stats.refused,
                stats.seconds,
                full_seconds,
                full_seconds / stats.seconds if stats.seconds > 0 else None,
                agree,
            )
    speedup = full_total / incremental_total if incremental_total > 0 else 0.0
    result.note(
        f"totals: incremental {incremental_total:.3f}s vs full {full_total:.3f}s "
        f"(overall speedup {speedup:.1f}x, policy={config.policy})"
    )
    result.note(
        "agree = re-fused slide's pool is bit-identical to the cold run "
        "('-' on carried slides, which skip Algorithm 2 entirely)"
    )
    if jobs > 1:
        result.note(f"executed with {jobs} worker processes (results identical)")
    return result
