"""Streaming — the incremental driver vs full re-fusion on every slide.

Replays a Diag⁺-style stream (diagonal-explosion rows, then the planted
colossal block) through a sliding window three ways:

* ``incremental-auto`` — the streaming driver with its default policy:
  phase 1 mined cold every slide, Algorithm 2 only on pool invalidation;
* ``incremental-always`` — the driver re-fusing every slide: the same
  phase 1 and Algorithm 2 the cold baseline runs, plus the driver's
  bookkeeping;
* ``full`` — the naive deployment: cold ``pattern_fusion`` (phase 1 + phase
  2) on every slide's window snapshot, same per-slide seeds.

All three timings land in the bench JSON, with per-slide means in
``extra_info``; the final pools are asserted bit-identical across the three,
which is the subsystem's cold-equivalence guarantee at benchmark scale.
Also prints the ``stream`` experiment's table (the per-slide speedup series).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_result, run_once
from repro.core import PatternFusion, PatternFusionConfig
from repro.datasets.diag import diag_plus
from repro.engine import SerialExecutor
from repro.experiments.stream_replay import StreamReplayConfig, run
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


def _replay_incremental(rows, policy):
    driver = IncrementalPatternFusion(
        WINDOW, MINSUP, CONFIG, policy=policy
    )
    report = driver.run(ReplaySource(rows, BATCH))
    return driver, report


def _replay_full(rows):
    """The naive baseline: cold Pattern-Fusion on every slide's window.

    Scheduled through an executor like every other driver, so its per-slide
    pools are the exact reference the incremental paths must reproduce.
    """
    window = SlidingWindowDatabase(capacity=WINDOW)
    executor = SerialExecutor()
    patterns = []
    slides = 0
    for batch in ReplaySource(rows, BATCH):
        window.extend(batch)
        config = CONFIG.reseeded(slide_seed(CONFIG.seed, slides))
        patterns = PatternFusion(
            window.snapshot(), MINSUP, config, executor=executor
        ).run().patterns
        slides += 1
    return patterns, slides


def _key(patterns):
    return [(p.sorted_items(), p.tidset) for p in patterns]


@pytest.fixture(scope="module")
def full_final(request, stream):
    return run_once(request, "stream-full-final", lambda: _key(_replay_full(stream)[0]))


@pytest.mark.parametrize("policy", ["auto", "always"])
def test_bench_incremental_replay(benchmark, stream, full_final, policy):
    driver, report = benchmark.pedantic(
        lambda: _replay_incremental(stream, policy),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["slides"] = len(report)
    benchmark.extra_info["refusions"] = report.refusion_count()
    benchmark.extra_info["mean_slide_seconds"] = (
        sum(s.seconds for s in report) / len(report)
    )
    assert report.last.refused  # the block arrival invalidates the final slide
    assert _key(driver.patterns) == full_final


def test_bench_full_refusion_replay(benchmark, stream, full_final):
    patterns, slides = benchmark.pedantic(
        lambda: _replay_full(stream),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["slides"] = slides
    assert _key(patterns) == full_final


def test_stream_experiment_table(request, benchmark):
    """Regenerate and print the streaming experiment's speedup table."""
    figure = run_once(
        request,
        "stream-experiment",
        lambda: run(StreamReplayConfig()),
    )
    print_result(figure)
    benchmark(figure.format)
    refused_rows = [row for row in figure.rows if row[3]]
    assert refused_rows, "some slide must re-fuse"
    assert all(row[7] for row in refused_rows)  # agree column
    # Carried slides beat the cold run; the totals note records the ratio.
    assert any("speedup" in note for note in figure.notes)
