"""Unit and property tests for repro.db.transaction_db."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import TransactionDatabase, bitset

small_dbs = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
    min_size=1,
    max_size=14,
).map(lambda rows: TransactionDatabase(rows, n_items=10))

itemsets = st.sets(st.integers(min_value=0, max_value=9), max_size=5).map(frozenset)


class TestConstruction:
    def test_infers_n_items(self, tiny_db):
        assert tiny_db.n_items == 6
        db = TransactionDatabase([[0, 7]])
        assert db.n_items == 8

    def test_explicit_n_items_too_small(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[0, 5]], n_items=3)

    def test_negative_item_rejected(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[-2]])

    def test_duplicate_items_collapse(self):
        db = TransactionDatabase([[1, 1, 1]])
        assert db.transaction(0) == frozenset([1])

    def test_empty_database(self):
        db = TransactionDatabase([], n_items=4)
        assert db.n_transactions == 0
        assert db.relative_support([1]) == 0.0

    def test_from_labeled(self):
        db = TransactionDatabase.from_labeled([["milk", "bread"], ["milk"]])
        assert db.n_items == 2
        assert db.encoder is not None
        milk = db.encoder.id_of("milk")
        assert db.support([milk]) == 2


class TestSupport:
    def test_single_items(self, tiny_db):
        assert tiny_db.support([0]) == 4
        assert tiny_db.support([4]) == 1
        assert tiny_db.support([5]) == 1

    def test_itemset_support(self, tiny_db):
        assert tiny_db.support([0, 1]) == 3
        assert tiny_db.support([0, 1, 2]) == 2
        assert tiny_db.support([3, 4]) == 0

    def test_empty_itemset_supported_everywhere(self, tiny_db):
        assert tiny_db.support([]) == tiny_db.n_transactions

    def test_relative_support(self, tiny_db):
        assert tiny_db.relative_support([0]) == pytest.approx(4 / 5)

    def test_item_out_of_universe(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.support([17])

    @given(small_dbs, itemsets)
    def test_tidset_matches_definition(self, db, items):
        expected = bitset.bitset_from_ids(
            tid for tid, row in enumerate(db.transactions) if items <= row
        )
        assert db.tidset(items) == expected

    @given(small_dbs, itemsets, itemsets)
    def test_lemma1_antimonotone(self, db, a, b):
        """Lemma 1: α ⊆ α′ ⇒ D_α′ ⊆ D_α."""
        smaller, larger = a, a | b
        assert bitset.is_subset(db.tidset(larger), db.tidset(smaller))


class TestMinsupConversion:
    def test_relative_float(self):
        db = TransactionDatabase([[0]] * 100, n_items=1)
        assert db.absolute_minsup(0.03) == 3
        assert db.absolute_minsup(0.031) == 4  # ceil

    def test_absolute_int(self, tiny_db):
        assert tiny_db.absolute_minsup(3) == 3

    def test_float_above_one_is_absolute(self, tiny_db):
        assert tiny_db.absolute_minsup(3.0) == 3

    def test_non_integral_absolute_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.absolute_minsup(2.5)

    def test_zero_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.absolute_minsup(0)

    def test_floor_at_one(self):
        db = TransactionDatabase([[0]] * 10, n_items=1)
        assert db.absolute_minsup(0.001) == 1


class TestClosure:
    def test_closure_extends(self, tiny_db):
        # item 5 occurs only in transaction {0,1,2,5}.
        assert tiny_db.closure([5]) == frozenset([0, 1, 2, 5])

    def test_closed_fixed_point(self, tiny_db):
        assert tiny_db.is_closed(frozenset([0, 1, 2, 5]))
        assert not tiny_db.is_closed(frozenset([5]))

    def test_closure_of_empty_tidset_is_universe(self, tiny_db):
        assert tiny_db.closure_of_tidset(0) == frozenset(range(6))

    @given(small_dbs, itemsets)
    @settings(max_examples=60)
    def test_closure_operator_laws(self, db, items):
        """Extensive, idempotent, support preserving."""
        closure = db.closure(items)
        assert items <= closure
        assert db.closure(closure) == closure
        if db.tidset(items):
            assert db.tidset(closure) == db.tidset(items)

    @given(small_dbs, itemsets, itemsets)
    @settings(max_examples=60)
    def test_closure_monotone(self, db, a, b):
        assert db.closure(a) <= db.closure(a | b)


class TestFrequentItems:
    def test_threshold(self, tiny_db):
        assert tiny_db.frequent_items(4) == [0, 1, 2]
        assert tiny_db.frequent_items(5) == []
        assert tiny_db.frequent_items(1) == [0, 1, 2, 3, 4, 5]

    def test_invalid_minsup(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.frequent_items(0)


class TestDerivedDatabases:
    def test_restrict_to_items(self, tiny_db):
        restricted = tiny_db.restrict_to_items([2, 0])
        # new item 0 is old item 2; new item 1 is old item 0.
        assert restricted.support([0]) == tiny_db.support([2])
        assert restricted.support([1]) == tiny_db.support([0])
        assert restricted.n_items == 2
