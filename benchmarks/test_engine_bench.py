"""A7 — parallel engine speedup: Pattern-Fusion at jobs ∈ {1, 2, 4}.

Times the Pattern-Fusion driver on the ALL-sim generator
at increasing worker counts, reusing one pre-mined initial pool so the series
isolates the fan-out of Algorithm 2's per-seed work (the engine's parallel
surface).  Every timed run is asserted pool-identical to the serial
reference — the engine's core guarantee — so this bench doubles as an
end-to-end agreement check at benchmark scale.

On a multi-core host the jobs series shows the speedup; on single-core CI
runners it records the scheduling overhead instead (the numbers are still
recorded so regressions in either direction are visible).  A second group
times the sharded bulk-support path for the same jobs series.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.core import PatternFusionConfig, pattern_fusion
from repro.datasets.microarray import all_like
from repro.engine import ShardedDatabase, make_executor
from repro.mining.levelwise import mine_up_to_size

JOBS_SERIES = (1, 2, 4)

CONFIG = PatternFusionConfig(
    k=16,
    tau=0.9,
    initial_pool_max_size=2,
    seed=0,
    max_iterations=3,
)


@pytest.fixture(scope="module")
def workload(request):
    def build():
        db, truth = all_like(seed=11)
        pool = mine_up_to_size(db, truth.minsup_absolute, 2).patterns
        return db, truth.minsup_absolute, pool

    return run_once(request, "a7-workload", build)


@pytest.fixture(scope="module")
def serial_pool(request, workload):
    def build():
        db, minsup, pool = workload
        result = pattern_fusion(db, minsup, CONFIG, jobs=1, initial_pool=pool)
        return {p.items for p in result.patterns}

    return run_once(request, "a7-serial-pool", build)


@pytest.mark.parametrize("jobs", JOBS_SERIES)
def test_bench_parallel_fusion(benchmark, workload, serial_pool, jobs):
    db, minsup, pool = workload
    executor = make_executor(jobs)
    try:
        result = benchmark.pedantic(
            lambda: pattern_fusion(
                db, minsup, CONFIG, initial_pool=pool, executor=executor
            ),
            rounds=3,
            iterations=1,
            warmup_rounds=0,
        )
    finally:
        executor.close()
    assert {p.items for p in result.patterns} == serial_pool


@pytest.mark.parametrize("jobs", JOBS_SERIES)
def test_bench_sharded_supports(benchmark, workload, jobs):
    db, minsup, pool = workload
    sharded = ShardedDatabase(db, n_shards=max(jobs, 2))
    itemsets = [p.sorted_items() for p in pool[:400]]
    expected = [p.support for p in pool[:400]]
    executor = make_executor(jobs)
    try:
        counts = benchmark.pedantic(
            lambda: sharded.supports(itemsets, executor=executor),
            rounds=3,
            iterations=1,
            warmup_rounds=0,
        )
    finally:
        executor.close()
    assert counts == expected
