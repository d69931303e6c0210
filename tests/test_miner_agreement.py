"""Miner agreement against brute force: the strongest correctness evidence.

The complete miners (Eclat and the NumPy level-wise pool miner), the
LCM-style closed miner and the derived ones (maximal, top-k) are checked on
random databases of at most 8 items against an oracle that enumerates every
itemset and counts it (``tests.conftest.brute_force_frequent``).  Any bug in
a traversal, a prune or a closure step shows up as a set difference here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import TransactionDatabase
from repro.mining import (
    closed_patterns,
    eclat,
    maximal_patterns,
    mine_up_to_size,
    top_k_closed,
)
from tests.conftest import brute_force_frequent

databases = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    min_size=1,
    max_size=12,
).map(lambda rows: TransactionDatabase(rows, n_items=8))

minsups = st.integers(min_value=1, max_value=4)


@given(databases, minsups)
@settings(max_examples=60, deadline=None)
def test_complete_miners_agree(db, minsup):
    """Eclat ≡ level-wise ≡ brute force, itemset for itemset, support for support."""
    oracle = brute_force_frequent(db, minsup)
    assert eclat(db, minsup).support_map() == oracle
    assert mine_up_to_size(db, minsup, max_size=8).support_map() == oracle


@given(databases, minsups)
@settings(max_examples=60, deadline=None)
def test_closed_is_closure_image_of_frequent(db, minsup):
    """Closed set == {closure(α) : α frequent}, with supports preserved."""
    expected = {db.closure(items) for items in brute_force_frequent(db, minsup)}
    closed = closed_patterns(db, minsup)
    assert closed.itemsets() == expected
    assert len(closed) == len(expected)  # each closed set emitted once
    for p in closed.patterns:
        assert p.support == db.support(p.items)


@given(databases, minsups)
@settings(max_examples=60, deadline=None)
def test_maximal_is_maximal_frequent(db, minsup):
    """Maximal set == frequent itemsets with no frequent proper superset."""
    frequent = brute_force_frequent(db, minsup).keys()
    expected = {
        items
        for items in frequent
        if not any(items < other for other in frequent)
    }
    assert maximal_patterns(db, minsup).itemsets() == expected


@given(databases, minsups)
@settings(max_examples=40, deadline=None)
def test_containment_chain(db, minsup):
    """maximal ⊆ closed ⊆ frequent."""
    frequent = set(brute_force_frequent(db, minsup))
    closed = closed_patterns(db, minsup).itemsets()
    maximal = maximal_patterns(db, minsup).itemsets()
    assert maximal <= closed <= frequent


@given(databases, st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_topk_matches_sorted_closed(db, k):
    """Top-k == the k highest supports among all closed patterns."""
    result = top_k_closed(db, k)
    reference = sorted(
        (p.support for p in closed_patterns(db, 1).patterns), reverse=True
    )
    assert [p.support for p in result.patterns] == reference[:k]


@given(databases, minsups)
@settings(max_examples=40, deadline=None)
def test_closed_set_determines_all_supports(db, minsup):
    """Any frequent itemset's support equals its smallest closed superset's."""
    closed = closed_patterns(db, minsup).patterns
    for items, support in brute_force_frequent(db, minsup).items():
        covers = [c.support for c in closed if items <= c.items]
        assert covers, f"no closed superset for {sorted(items)}"
        assert max(covers) == support
