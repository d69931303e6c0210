"""Tidset kernel layer at Replace-sim scale.

The acceptance microbench of the kernels: the mined Replace-sim ≤2 pool
(4,395-bit tidsets, one bit per transaction of the paper's Replace-sim),
timed through :class:`repro.kernels.TidsetMatrix` for the hot shapes —
ball queries (Theorem 2 range queries over Definition 6 distances, also
on ALL-sim's one-word tidsets), the greedy fusion levels of one ball, the
greedy passes over a round's balls (on the ≤3 pool), the closure
operator, the closed miner's reference set, and an end-to-end
``pattern_fusion`` run.  Every timed shape
also asserts its answers against the naive big-int formulation (the
scalar greedy pass for the levels and the passes; end to end, the mined
pool's invariants), so the trajectory file can never hide a semantic
drift.

Timings land in ``BENCH_kernels.json`` via the shared ``bench_io`` session
hook; committing it tracks the kernels' speed across PRs.
"""

import random

import pytest

from benchmarks.conftest import run_once
from repro.core.ball_index import PatternBallIndex
from repro.core.distance import ball, ball_radius
from repro.core.fusion import fuse_ball
from repro.core.pattern_fusion import pattern_fusion
from repro.core.config import PatternFusionConfig
from repro.datasets.microarray import all_like
from repro.datasets.replace import replace_like
from repro.mining.closed import closed_patterns
from repro.mining.levelwise import mine_pool, mine_up_to_size
from tests.test_fusion import scalar_fuse_ball

N_BITS = 4395      # Replace-sim transaction count: one bit per transaction
N_CENTERS = 100    # the paper's K: seeds per fusion round


@pytest.fixture(scope="module")
def replace_pool(request):
    """The mined Replace-sim ≤2 initial pool (real tidset distribution)."""

    def build():
        db, truth = replace_like(seed=5)  # the paper's 4,395-transaction scale
        patterns = mine_up_to_size(db, truth.minsup_absolute, 2).patterns
        return db, patterns

    return run_once(request, "kernels-replace-pool", build)


def test_bench_ball_queries(benchmark, replace_pool):
    """Theorem 2 range queries through PatternBallIndex, batched centers."""
    _, patterns = replace_pool
    radius = ball_radius(0.7)
    rng = random.Random(3)
    centers = rng.sample(patterns, min(N_CENTERS, len(patterns)))
    index = PatternBallIndex(patterns)

    def query():
        return index.balls(centers, radius)

    balls = benchmark.pedantic(query, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "pool": len(patterns), "distinct": len(index.pool.distinct),
        "centers": len(centers),
    })
    assert balls[:5] == [ball(center, patterns, radius) for center in centers[:5]]


@pytest.fixture(scope="module")
def all_pool(request):
    """ALL-sim's minsup-27, size ≤ 2 phase-1 pool: 173,746 one-word rows."""

    def build():
        db, _ = all_like(seed=11)
        return mine_pool(db, 27, 2)

    return run_once(request, "kernels-all-pool", build)


def test_bench_ball_queries_one_word(benchmark, all_pool):
    """The same range queries on one-word tidsets at τ 0.97 (Fig. 10)."""
    radius = ball_radius(0.97)
    rows = random.Random(3).sample(range(len(all_pool)), N_CENTERS)
    centers = all_pool.patterns_at(rows)
    index = PatternBallIndex(all_pool)

    def query():
        return index.balls(centers, radius)

    balls = benchmark.pedantic(query, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "pool": len(all_pool), "distinct": len(all_pool.distinct),
        "centers": len(centers),
    })
    patterns = list(all_pool)
    assert balls[:5] == [ball(center, patterns, radius) for center in centers[:5]]


def test_bench_greedy_levels(benchmark, replace_pool):
    """``fuse_ball`` on the largest of 20 Replace-sim balls at τ 0.5.

    The ball comes from the ball query with its counts, which become the
    seed's level; every shrink level is derived from its parent.  The
    fused patterns equal the scalar greedy pass's on the same orders.
    """
    db, patterns = replace_pool
    _, truth = replace_like(seed=5)
    minsup = truth.minsup_absolute
    config = PatternFusionConfig()
    index = PatternBallIndex(patterns)
    centers = random.Random(4).sample(range(len(patterns)), 20)
    balls = index.balls([patterns[c] for c in centers], ball_radius(config.tau))
    seed_row, members = max(zip(centers, balls), key=lambda pair: len(pair[1]))
    seed = patterns[seed_row]
    settings = dict(
        tau=config.tau, minsup=minsup, trials=config.fusion_trials,
        max_candidates=config.max_candidates_per_seed,
        close_fused=config.close_fused,
    )

    def fuse():
        return fuse_ball(
            db, seed, members, rng=random.Random(0), pool=index.pool,
            rows=members.rows, seed_row=seed_row, counts=members.counts,
            **settings,
        )

    fused = benchmark.pedantic(fuse, rounds=10, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update({"ball": len(members), "fused": len(fused)})
    expected = scalar_fuse_ball(
        db, seed, list(members), rng=random.Random(0), **settings
    )
    assert [(p.items, p.tidset) for p in fused] == [
        (p.items, p.tidset) for p in expected
    ]


@pytest.fixture(scope="module")
def replace_pool_3(request):
    """The ``replace_fusion`` workload's phase-1 pool: Replace-sim (seed 7),
    itemsets of size ≤ 3, where each distinct tidset is held by ~7 rows."""

    def build():
        db, truth = replace_like(seed=7)
        return db, truth.minsup_absolute, mine_pool(db, truth.minsup_absolute, 3)

    return run_once(request, "kernels-replace-pool-3", build)


def test_bench_greedy_walks(benchmark, replace_pool_3):
    """``fuse_ball`` over the balls of a round's 100 seeds at τ 0.5.

    The walks run over each ball's distinct member tidsets, so ``distinct``
    (summed over the balls), not ``ball`` (their summed members), is what a
    pass costs.  Every ball's fused patterns equal the scalar greedy
    pass's over the members.
    """
    import numpy as np

    db, minsup, pool = replace_pool_3
    config = PatternFusionConfig()
    rows = random.Random(4).sample(range(len(pool)), N_CENTERS)
    seeds = pool.patterns_at(rows)
    balls = PatternBallIndex(pool).balls(seeds, ball_radius(config.tau))
    settings = dict(
        tau=config.tau, minsup=minsup, trials=config.fusion_trials,
        max_candidates=config.max_candidates_per_seed,
        close_fused=config.close_fused,
    )

    def fuse():
        return [
            fuse_ball(
                db, seed, members, rng=random.Random(row), pool=pool,
                rows=members.rows, seed_row=row, counts=members.counts,
                **settings,
            )
            for row, seed, members in zip(rows, seeds, balls)
        ]

    fused = benchmark.pedantic(fuse, rounds=5, iterations=1, warmup_rounds=1)
    ids = pool.tidset_ids
    benchmark.extra_info.update({
        "pool": len(pool), "balls": len(balls),
        "ball": sum(len(members) for members in balls),
        "distinct": sum(len(np.unique(ids[members.rows])) for members in balls),
    })
    for row, seed, members, got in zip(rows, seeds, balls, fused):
        expected = scalar_fuse_ball(
            db, seed, list(members), rng=random.Random(row), **settings
        )
        assert [(p.items, p.tidset) for p in got] == [
            (p.items, p.tidset) for p in expected
        ]


def test_bench_closure(benchmark, replace_pool):
    """The Galois closure over the Replace-sim item matrix."""
    db, patterns = replace_pool
    rng = random.Random(9)
    probes = [p.tidset for p in rng.sample(patterns, 200)]

    def closures():
        return [db.closure_of_tidset(t) for t in probes]

    closed = benchmark.pedantic(closures, rounds=3, iterations=1)
    item_tidsets = [db.item_tidset(item) for item in range(db.n_items)]
    assert closed == [
        frozenset(
            item for item, column in enumerate(item_tidsets)
            if t & ~column == 0
        )
        for t in probes
    ]


def test_bench_closed_replace(benchmark):
    """The complete closed set of Replace-sim at minsup 132 (Fig. 8's Q).

    4,014 closed patterns over 4,395 transactions, 688 of them distinct.
    """
    db, truth = replace_like()
    minsup = truth.minsup_absolute

    def mine():
        return closed_patterns(db, minsup)

    result = benchmark.pedantic(mine, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update({"patterns": len(result), "minsup": minsup})
    assert minsup == 132
    assert len(result) == 4014


def test_bench_pattern_fusion_end_to_end(benchmark, replace_pool):
    """Algorithm 1 end to end on Replace-sim, phase-1 pool premined."""
    db, patterns = replace_pool
    _, truth = replace_like(seed=5)
    config = PatternFusionConfig(
        k=20, initial_pool_max_size=2, fusion_trials=4, seed=0
    )

    def fuse():
        return pattern_fusion(
            db, truth.minsup_absolute, config, initial_pool=patterns
        )

    result = benchmark.pedantic(fuse, rounds=2, iterations=1)
    benchmark.extra_info.update({"initial_pool": len(patterns)})
    assert result.patterns
    for p in result.patterns:
        assert p.tidset == db.tidset(p.items)
        assert p.support >= truth.minsup_absolute


def test_pool_is_at_acceptance_scale(replace_pool):
    """The committed trajectory must witness the acceptance configuration."""
    db, patterns = replace_pool
    assert db.n_transactions == N_BITS
    assert len(patterns) >= 100
