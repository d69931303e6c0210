"""Per-miner unit tests: hand-verified answers on tiny databases.

The brute-force agreement suite lives in test_miner_agreement.py; these tests
pin each algorithm to concrete, audited outputs and exercise its specific
options (max_size caps, timeouts, top-k semantics).
"""

import pytest

from repro.db import TransactionDatabase
from repro.mining import (
    closed_patterns,
    eclat,
    maximal_patterns,
    mine_up_to_size,
    top_k_closed,
)
from repro.mining.levelwise import expected_pool_size_upper_bound
from tests.conftest import brute_force_frequent


@pytest.fixture
def market_db():
    """The classic 5-transaction market-basket example (hand-auditable)."""
    return TransactionDatabase(
        [
            [0, 1, 4],       # bread milk eggs
            [0, 1],          # bread milk
            [1, 2],          # milk beer
            [0, 1, 2],       # bread milk beer
            [0, 2, 3],       # bread beer diapers
        ],
        n_items=5,
    )


EXPECTED_FREQUENT_AT_2 = {
    frozenset([0]): 4,
    frozenset([1]): 4,
    frozenset([2]): 3,
    frozenset([0, 1]): 3,
    frozenset([0, 2]): 2,
    frozenset([1, 2]): 2,
    frozenset([0, 1, 2]): 1,  # not frequent — must be absent
}


class TestEclat:
    def test_exact_answer(self, market_db):
        assert eclat(market_db, 2).support_map() == brute_force_frequent(market_db, 2)

    def test_expected_supports(self, market_db):
        result = eclat(market_db, 2)
        assert result.support_map() == {
            k: v for k, v in EXPECTED_FREQUENT_AT_2.items() if v >= 2
        }

    def test_hand_checked_supports(self, market_db):
        support = eclat(market_db, 2).support_map()
        assert support[frozenset([0])] == 4
        assert support[frozenset([0, 1])] == 3
        assert support[frozenset([1, 2])] == 2
        assert frozenset([0, 1, 2]) not in support
        assert frozenset([3]) not in support  # support 1
        assert len(support) == 6

    def test_relative_threshold(self, market_db):
        assert eclat(market_db, 0.4).itemsets() == eclat(market_db, 2).itemsets()

    def test_max_size(self, market_db):
        result = eclat(market_db, 2, max_size=1)
        assert {p.size for p in result.patterns} == {1}

    def test_max_size_cap(self, market_db):
        result = eclat(market_db, 2, max_size=1)
        assert all(p.size == 1 for p in result.patterns)
        assert len(result) == 3

    def test_max_size_two(self, market_db):
        result = eclat(market_db, 2, max_size=2)
        assert max(p.size for p in result.patterns) == 2

    def test_minsup_above_db(self, market_db):
        assert len(eclat(market_db, 6)) == 0

    def test_supports_are_tidset_counts(self, market_db):
        for p in eclat(market_db, 2).patterns:
            assert p.support == market_db.support(p.items)

    def test_single_path_database(self):
        # Nested rows: every subset of the longest row is frequent.
        db = TransactionDatabase([[0, 1, 2]] * 3 + [[0, 1]] * 2 + [[0]], n_items=3)
        assert eclat(db, 2).support_map() == {
            frozenset([0]): 6,
            frozenset([1]): 5,
            frozenset([0, 1]): 5,
            frozenset([2]): 3,
            frozenset([0, 2]): 3,
            frozenset([1, 2]): 3,
            frozenset([0, 1, 2]): 3,
        }

    def test_empty_database(self):
        db = TransactionDatabase([], n_items=3)
        assert len(eclat(db, 1)) == 0


class TestClosed:
    def test_exact_answer(self, market_db):
        result = closed_patterns(market_db, 2)
        # Closures at minsup 2: {1}(4), {0}(4), {0,1}(3), {2}(3), {0,2}(2), {1,2}(2)
        assert result.support_map() == {
            frozenset([0]): 4,
            frozenset([1]): 4,
            frozenset([0, 1]): 3,
            frozenset([2]): 3,
            frozenset([0, 2]): 2,
            frozenset([1, 2]): 2,
        }

    def test_all_closed(self, market_db):
        for p in closed_patterns(market_db, 1).patterns:
            assert market_db.is_closed(p.items)

    def test_max_patterns_cap(self, market_db):
        assert len(closed_patterns(market_db, 1, max_patterns=2)) == 2

    def test_root_closure_emitted(self):
        # Item 0 in every transaction -> closure of the root is {0}.
        db = TransactionDatabase([[0, 1], [0, 2], [0]], n_items=3)
        result = closed_patterns(db, 3)
        assert result.itemsets() == {frozenset([0])}

    def test_invalid_minsup(self, market_db):
        with pytest.raises(ValueError):
            closed_patterns(market_db, 0)

    def test_empty_database(self):
        db = TransactionDatabase([], n_items=3)
        assert len(closed_patterns(db, 1)) == 0


class TestMaximal:
    def test_exact_answer(self, market_db):
        result = maximal_patterns(market_db, 2)
        assert result.itemsets() == {frozenset([0, 1]), frozenset([0, 2]),
                                     frozenset([1, 2])}

    def test_maximality_definition(self, market_db):
        frequent = brute_force_frequent(market_db, 2).keys()
        maximal = maximal_patterns(market_db, 2).itemsets()
        for items in maximal:
            assert items in frequent
            supersets = [f for f in frequent if items < f]
            assert not supersets

    def test_lookahead_single_block(self):
        # All transactions identical: the one maximal set is the whole row.
        db = TransactionDatabase([[0, 1, 2, 3]] * 4, n_items=4)
        result = maximal_patterns(db, 2)
        assert result.itemsets() == {frozenset([0, 1, 2, 3])}

    def test_timeout_raises(self):
        from repro.datasets import diag

        with pytest.raises(TimeoutError):
            maximal_patterns(diag(26), 13, max_seconds=0.05)


class TestTopK:
    def test_orders_by_support(self, market_db):
        result = top_k_closed(market_db, 3)
        supports = [p.support for p in result.patterns]
        assert supports == sorted(supports, reverse=True)
        assert supports[0] == 4

    def test_k_larger_than_population(self, market_db):
        result = top_k_closed(market_db, 100)
        assert len(result) == len(closed_patterns(market_db, 1))

    def test_min_size_filter(self, market_db):
        result = top_k_closed(market_db, 10, min_size=2)
        assert all(p.size >= 2 for p in result.patterns)
        assert result.patterns[0].items == frozenset([0, 1])

    def test_matches_closed_reference(self, quest_db):
        k = 15
        result = top_k_closed(quest_db, k, min_size=2)
        reference = [
            p for p in closed_patterns(quest_db, 1).patterns if p.size >= 2
        ]
        reference.sort(key=lambda p: -p.support)
        got = sorted(p.support for p in result.patterns)
        expected = sorted(p.support for p in reference[:k])
        assert got == expected

    def test_bound_reported(self, market_db):
        result = top_k_closed(market_db, 2)
        assert result.minsup >= 3  # two closed patterns have support 4

    def test_initial_minsup_floor(self, quest_db):
        floor = 30
        result = top_k_closed(quest_db, 10_000, initial_minsup=floor)
        reference = closed_patterns(quest_db, floor)
        assert result.itemsets() == reference.itemsets()

    def test_invalid_arguments(self, market_db):
        with pytest.raises(ValueError):
            top_k_closed(market_db, 0)
        with pytest.raises(ValueError):
            top_k_closed(market_db, 1, min_size=0)
        with pytest.raises(ValueError):
            top_k_closed(market_db, 1, initial_minsup=0)


class TestLevelwise:
    def test_complete_up_to_size(self, market_db):
        result = mine_up_to_size(market_db, 2, max_size=2)
        assert result.support_map() == brute_force_frequent(
            market_db, 2, max_size=2
        )

    def test_invalid_max_size(self, market_db):
        with pytest.raises(ValueError):
            mine_up_to_size(market_db, 2, max_size=0)

    def test_pool_bound_diag40(self):
        # The paper's Diag40 initial pool: 820 patterns of size <= 2.
        assert expected_pool_size_upper_bound(40, 2) == 820

    def test_pool_bound_degenerate(self):
        assert expected_pool_size_upper_bound(3, 10) == 7  # 3 + 3 + 1
