"""Shared fixtures: the paper's worked-example database and small workloads."""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path

import pytest

from repro.db import TransactionDatabase
from repro.datasets import quest_like
from repro.kernels import backend

# Items of the Figure 3 example: a=0, b=1, c=2, e=3, f=4.
A, B, C, E, F = 0, 1, 2, 3, 4


def figure3_transactions(duplicates: int = 100) -> list[list[int]]:
    """The paper's Figure 3 database: four distinct transactions, duplicated.

    (abe), (bcf), (acf), (abcef) — with 100 copies each in the paper.
    """
    rows = [
        [A, B, E],
        [B, C, F],
        [A, C, F],
        [A, B, C, E, F],
    ]
    return [list(row) for row in rows for _ in range(duplicates)]


def brute_force_frequent(
    db: TransactionDatabase, minsup: float | int, max_size: int | None = None
) -> dict[frozenset[int], int]:
    """Every itemset with support >= ``minsup``, found by trying them all.

    The oracle the miner tests check against: it counts each of the
    ``2^n_items - 1`` nonempty itemsets (up to ``max_size`` items) with
    ``db.support``, so it only takes databases of at most 8 items.
    """
    if db.n_items > 8:
        raise ValueError(f"brute force takes <= 8 items, got {db.n_items}")
    absolute = db.absolute_minsup(minsup)
    largest = db.n_items if max_size is None else max_size
    frequent: dict[frozenset[int], int] = {}
    for size in range(1, largest + 1):
        for items in itertools.combinations(range(db.n_items), size):
            support = db.support(items)
            if support >= absolute:
                frequent[frozenset(items)] = support
    return frequent


def on_kernel(test):
    """Run ``test`` (a test function or class) on the package's tidset kernel.

    The package has one kernel, so this is one run; it puts the kernel's
    name, as ``repro.kernels.backend()`` gives it, last in the test id
    (``test_reads_like_a_list[numpy]``).
    """
    test = pytest.mark.parametrize("kernel", [backend()])(test)
    return pytest.mark.usefixtures("kernel")(test)


@pytest.fixture
def figure3_db() -> TransactionDatabase:
    """Figure 3's database with the paper's 100-fold duplication."""
    return TransactionDatabase(figure3_transactions(), n_items=5)


@pytest.fixture
def figure3_db_small() -> TransactionDatabase:
    """Figure 3's database with single copies (same support *ratios*)."""
    return TransactionDatabase(figure3_transactions(duplicates=1), n_items=5)


@pytest.fixture
def tiny_db() -> TransactionDatabase:
    """Five hand-auditable transactions over six items."""
    return TransactionDatabase(
        [
            [0, 1, 2],
            [0, 1],
            [0, 2, 3],
            [1, 2, 4],
            [0, 1, 2, 5],
        ],
        n_items=6,
    )


@pytest.fixture
def quest_db() -> TransactionDatabase:
    """A mid-size planted-pattern database for cross-miner checks."""
    return quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=42)


#: A store from before the binary format: v1 ``patterns.txt`` payloads only,
#: kept only as a format fixture.  Its fusion run is the pool an earlier
#: version mined with ``mine_cached(store, "pattern_fusion", diag_plus(),
#: minsup=20, k=10, initial_pool_max_size=2, seed=0)``; that call mines a
#: different pool today.  Its other run is the empty pool of
#: ``mine_cached(store, "eclat", diag(10), minsup=11)``.
V1_STORE = Path(__file__).parent / "fixtures" / "v1_store"
V1_FUSION_RUN = "927ebcdfd3f455ec"
V1_EMPTY_RUN = "2990537c923a1a88"


@pytest.fixture
def v1_store(tmp_path) -> Path:
    """A writable copy of the committed v1-only store."""
    return Path(shutil.copytree(V1_STORE, tmp_path / "v1_store"))
