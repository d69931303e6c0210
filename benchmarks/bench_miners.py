"""A4 — miner micro-benchmarks on an unstructured QUEST-style workload.

Times the complete miner (Eclat's vertical DFS) and the closed, maximal and
top-k miners on the same database, and asserts the structural relationships
that make the comparisons meaningful.
"""

import pytest

from benchmarks.conftest import run_once
from repro.datasets.synthetic import quest_like
from repro.mining import (
    closed_patterns,
    eclat,
    maximal_patterns,
    top_k_closed,
)

MINSUP = 18


@pytest.fixture(scope="module")
def db(request):
    # Calibrated so the complete frequent set is ~1.2k patterns: large
    # enough to exercise every traversal, small enough that benchmark
    # rounds stay sub-second (the planted patterns of the default QUEST
    # profile co-occur so much that the frequent set explodes into the
    # millions — the very phenomenon the paper is about, but not what a
    # micro-benchmark should time).
    return run_once(
        request,
        "quest-bench",
        lambda: quest_like(
            n_transactions=600, n_items=80, n_patterns=20,
            mean_pattern_size=5, patterns_per_transaction=2,
            corruption=0.35, seed=17,
        ),
    )


@pytest.fixture(scope="module")
def reference(request, db):
    return run_once(request, "quest-ref", lambda: eclat(db, MINSUP).itemsets())


def test_bench_eclat(benchmark, db, reference):
    result = benchmark(lambda: eclat(db, MINSUP))
    assert result.itemsets() == reference


def test_bench_closed(benchmark, db, reference):
    result = benchmark(lambda: closed_patterns(db, MINSUP))
    assert result.itemsets() <= reference


def test_bench_maximal(benchmark, db, reference):
    result = benchmark(lambda: maximal_patterns(db, MINSUP))
    for p in result.patterns:
        assert p.items in reference


def test_bench_topk(benchmark, db):
    result = benchmark(lambda: top_k_closed(db, 50, min_size=2))
    assert len(result) == 50
