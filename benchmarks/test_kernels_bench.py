"""Tidset kernel layer at Replace-sim scale.

The acceptance microbench of the kernels: 4,395-bit tidsets (the paper's
Replace-sim transaction count) and a ≥2,000-pattern pool, timed through
:class:`repro.kernels.TidsetMatrix` for the four hot shapes — the K×N pool
distance matrix (Definition 6 rows), ball queries (Theorem 2 range
queries), the closure operator, and an end-to-end ``pattern_fusion`` run.
Every timed shape also asserts its answers against the naive big-int
formulation (or, end to end, the mined pool's invariants), so the
trajectory file can never hide a semantic drift.

Timings land in ``BENCH_kernels.json`` via the shared ``bench_io`` session
hook; committing it tracks the kernels' speed across PRs.
"""

import random

import pytest

from benchmarks.conftest import run_once
from repro.core.ball_index import PatternBallIndex
from repro.core.distance import ball, ball_radius, tidset_distance
from repro.core.pattern_fusion import pattern_fusion
from repro.core.config import PatternFusionConfig
from repro.datasets.replace import replace_like
from repro.kernels import TidsetMatrix
from repro.mining.levelwise import mine_up_to_size

N_BITS = 4395      # Replace-sim transaction count: one bit per transaction
POOL_SIZE = 2000   # acceptance floor for the pool distance matrix
N_CENTERS = 100    # the paper's K: seeds per fusion round


@pytest.fixture(scope="module")
def tidset_pool(request):
    """2,000 synthetic 4,395-bit tidsets with mixed densities."""

    def build():
        rng = random.Random(11)
        pool = []
        for index in range(POOL_SIZE):
            mask = rng.getrandbits(N_BITS)
            for _ in range(index % 3):  # thin some rows: density 50/25/12.5%
                mask &= rng.getrandbits(N_BITS)
            pool.append(mask)
        return pool

    return run_once(request, "kernels-tidset-pool", build)


@pytest.fixture(scope="module")
def replace_pool(request):
    """The mined Replace-sim ≤2 initial pool (real tidset distribution)."""

    def build():
        db, truth = replace_like(seed=5)  # the paper's 4,395-transaction scale
        patterns = mine_up_to_size(db, truth.minsup_absolute, 2).patterns
        return db, patterns

    return run_once(request, "kernels-replace-pool", build)


def test_bench_pool_distance_matrix(benchmark, tidset_pool):
    """All-pairs N×N pool distance matrix — the acceptance microbench."""

    def distance_matrix():
        matrix = TidsetMatrix.from_tidsets(tidset_pool, n_bits=N_BITS)
        return matrix.jaccard_distance_matrix()

    full = benchmark.pedantic(distance_matrix, rounds=3, iterations=1)
    benchmark.extra_info.update({"pool": POOL_SIZE, "n_bits": N_BITS})
    # Identical floats to the big-int distance, not approximately equal.
    for i in range(2):
        assert full[i].tolist() == [
            tidset_distance(tidset_pool[i], row) for row in tidset_pool
        ]


def test_bench_distance_rows(benchmark, tidset_pool):
    """K×N distance rows (the fusion drivers' per-round ball-query shape)."""
    centers = tidset_pool[:N_CENTERS]
    matrix = TidsetMatrix.from_tidsets(tidset_pool, n_bits=N_BITS)

    def distance_rows():
        return matrix.jaccard_distance_rows(centers)

    rows = benchmark.pedantic(distance_rows, rounds=3, iterations=1)
    benchmark.extra_info.update(
        {"pool": POOL_SIZE, "centers": N_CENTERS, "n_bits": N_BITS}
    )
    assert rows[:2] == [
        [tidset_distance(center, row) for row in tidset_pool]
        for center in centers[:2]
    ]


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
    benchmark.extra_info.update({"pool": len(patterns), "centers": len(centers)})
    assert balls[:5] == [ball(center, patterns, radius) for center in centers[:5]]


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


def test_pool_is_at_acceptance_scale(replace_pool, tidset_pool):
    """The committed trajectory must witness the acceptance configuration."""
    assert len(tidset_pool) >= 2000
    assert max(t.bit_length() for t in tidset_pool) <= N_BITS
    db, patterns = replace_pool
    assert db.n_transactions == N_BITS
    assert len(patterns) >= 100
