"""Store subsystem benchmarks: persistence, cache, and query hot paths.

Times the four operations a serving deployment leans on — saving a pool,
reloading it, a warm ``mine_cached`` hit, and indexed queries — over a
complete ≤2 pool on the Diag generator (thousands of patterns, so the
payload and index sizes are representative).  Correctness is asserted
alongside every timing: reloads must be bit-identical and indexed queries
must equal brute-force filtering.

``test_bench_save_replace_scale`` saves the Replace-sim phase-1 pool
(≤ 3, 26,571 patterns over 4,395 transactions) into a fresh store each
round and records the run's on-disk ``bytes`` in its meta.
``test_bench_ball_query_replace_scale`` answers one distance ball over
that run the way the server does: ``run_query`` with the run's mapped
matrix (``PatternStore.open_matrix``), not a per-query re-pack.

Session end writes the timings to ``BENCH_store.json`` at the repository
root (see ``benchmarks/conftest.py``); committing that file is what gives
the store a perf trajectory across PRs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.datasets import diag, replace_like
from repro.mining.levelwise import mine_up_to_size
from repro.store import (
    InvertedItemIndex,
    PatternStore,
    Query,
    mine_cached,
    run_query,
)

MINSUP = 10


@pytest.fixture(scope="module")
def workload(request):
    def build():
        db = diag(48)
        pool = mine_up_to_size(db, MINSUP, 2)
        return db, pool

    return run_once(request, "store-workload", build)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, workload):
    db, pool = workload
    store = PatternStore(tmp_path_factory.mktemp("bench-store"))
    run_id = store.save(pool, db=db, miner="levelwise",
                        config={"minsup": MINSUP, "max_size": 2})
    return store, run_id


def test_bench_save(benchmark, tmp_path, workload):
    db, pool = workload
    store = PatternStore(tmp_path / "store")

    def save():
        # Content-addressed saves dedup, so the repeated save measures the
        # full encode+hash path and only the first round pays the writes.
        return store.save(pool, db=db, miner="levelwise",
                          config={"minsup": MINSUP, "max_size": 2})

    run_id = benchmark.pedantic(save, rounds=5, iterations=1, warmup_rounds=0)
    assert run_id in store


def test_bench_save_replace_scale(benchmark, request, tmp_path):
    def build():
        db, truth = replace_like(seed=7)
        return db, mine_up_to_size(db, truth.minsup_absolute, 3)

    db, pool = run_once(request, "store-replace-pool", build)
    rounds = iter(range(1_000))

    def fresh_store():
        return (PatternStore(tmp_path / f"store{next(rounds)}"),), {}

    def save(store):
        return store, store.save(pool, db=db, miner="levelwise")

    store, run_id = benchmark.pedantic(
        save, setup=fresh_store, rounds=3, iterations=1, warmup_rounds=0
    )
    info = store.run_info(run_id)
    benchmark.extra_info.update(
        patterns=len(pool.patterns), bytes=info["bytes"], files=info["files"]
    )
    assert info["n_patterns"] == len(pool.patterns)


def test_bench_ball_query_replace_scale(benchmark, request, tmp_path):
    def build():
        db, truth = replace_like(seed=7)
        return db, mine_up_to_size(db, truth.minsup_absolute, 3)

    db, pool = run_once(request, "store-replace-pool", build)
    store = PatternStore(tmp_path / "store")
    run_id = store.save(pool, db=db, miner="levelwise")
    patterns = store.load(run_id).patterns
    matrix = store.open_matrix(run_id).matrix
    center = patterns[len(patterns) // 2]
    query = Query().within(center.items, 0.25).limit(50)
    matches = benchmark.pedantic(
        lambda: run_query(patterns, query, matrix=matrix),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info.update(patterns=len(patterns), matches=len(matches))
    assert matches and matches == run_query(patterns, query)


def test_bench_load_bit_identical(benchmark, workload, warm_store):
    _, pool = workload
    store, run_id = warm_store
    run = benchmark.pedantic(
        lambda: store.load(run_id), rounds=5, iterations=1, warmup_rounds=0
    )
    assert [(p.items, p.tidset) for p in run.patterns] == [
        (p.items, p.tidset) for p in pool.patterns
    ]


def test_bench_mine_cached_warm_hit(benchmark, workload, tmp_path):
    db, _ = workload
    store = PatternStore(tmp_path / "cache-store")
    cold = mine_cached(store, "levelwise", db, minsup=MINSUP, max_size=2)
    outcome = benchmark.pedantic(
        lambda: mine_cached(store, "levelwise", db, minsup=MINSUP, max_size=2),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert outcome.hit and not cold.hit
    assert [(p.items, p.tidset) for p in outcome.result.patterns] == [
        (p.items, p.tidset) for p in cold.result.patterns
    ]


@pytest.mark.parametrize("name, query", [
    ("superset", Query().superset([0, 1])),
    ("contains-top", Query().contains(0, 1, 2, 3).limit(32)),
    ("support-size", Query().support_at_least(MINSUP + 4).size_at_least(2)),
])
def test_bench_query(benchmark, workload, name, query):
    _, pool = workload
    index = InvertedItemIndex(pool.patterns)
    matches = benchmark.pedantic(
        lambda: query.evaluate(pool.patterns, index=index),
        rounds=5, iterations=1, warmup_rounds=0,
    )
    brute = query.evaluate(pool.patterns)  # builds its own index
    assert matches == brute
    assert all(p.support >= query.min_support for p in matches)
