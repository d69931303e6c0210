"""Streaming — the driver vs cold Pattern-Fusion on every slide.

Replays a Diag⁺-style stream (diagonal-explosion rows, then the planted
colossal block) through a sliding window two ways:

* ``driver`` — :class:`IncrementalPatternFusion`, which runs phase 1 and
  Algorithm 2 on every slide's window with the slide's scheduled seed;
* ``cold`` — ``PatternFusion(...).run()`` on every slide's window snapshot
  with the same per-slide seeds.

Both timings land in the bench JSON, with per-slide means in
``extra_info``.  Every slide's pool is asserted bit-identical between the
two, which is the subsystem's cold-equivalence guarantee at benchmark scale.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.core import PatternFusion, PatternFusionConfig
from repro.datasets.diag import diag_plus
from repro.engine import SerialExecutor
from repro.streaming import (
    IncrementalPatternFusion,
    ReplaySource,
    SlidingWindowDatabase,
    slide_seed,
)

WINDOW = 24
BATCH = 4
MINSUP = 6

CONFIG = PatternFusionConfig(
    k=8,
    tau=0.5,
    initial_pool_max_size=2,
    seed=0,
)


@pytest.fixture(scope="module")
def stream(request):
    def build():
        db = diag_plus(n=18, extra_rows=14, extra_width=16)
        return [sorted(row) for row in db.transactions]

    return run_once(request, "stream-rows", build)


def _key(patterns):
    return [(p.sorted_items(), p.tidset) for p in patterns]


def _replay_driver(rows):
    """Every slide's pool from the streaming driver, plus its report."""
    driver = IncrementalPatternFusion(WINDOW, MINSUP, CONFIG)
    pools = []
    for batch in ReplaySource(rows, BATCH):
        driver.slide(batch)
        pools.append(_key(driver.patterns))
    return pools, driver.report


def _replay_cold(rows):
    """Every slide's pool from a cold Pattern-Fusion run on its window."""
    window = SlidingWindowDatabase(capacity=WINDOW)
    executor = SerialExecutor()
    pools = []
    for slide, batch in enumerate(ReplaySource(rows, BATCH)):
        window.extend(batch)
        config = CONFIG.reseeded(slide_seed(CONFIG.seed, slide))
        result = PatternFusion(
            window.snapshot(), MINSUP, config, executor=executor
        ).run()
        pools.append(_key(result.patterns))
    return pools


@pytest.fixture(scope="module")
def cold_pools(request, stream):
    return run_once(request, "stream-cold-pools", lambda: _replay_cold(stream))


def test_bench_driver_replay(benchmark, stream, cold_pools):
    pools, report = benchmark.pedantic(
        lambda: _replay_driver(stream),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["slides"] = len(report)
    benchmark.extra_info["mean_slide_seconds"] = (
        sum(s.seconds for s in report) / len(report)
    )
    assert len(pools) > 1
    assert pools == cold_pools


def test_bench_cold_replay(benchmark, stream, cold_pools):
    pools = benchmark.pedantic(
        lambda: _replay_cold(stream),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["slides"] = len(pools)
    assert pools == cold_pools
