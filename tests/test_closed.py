"""The closed miner against its scalar recursion, sequence for sequence.

:func:`scalar_closed` is LCM's ppc-extension over big-int tidsets, one
Galois closure per extension.  The miner walks the same search over the
distinct transactions in NumPy batches, and must emit the same patterns
with the same tidsets in the same order.  The random databases reach past
one item word (up to ~150 items), repeat and empty transactions, leave
items unused and sometimes share items across every transaction (a
non-empty root closure).
"""

import hashlib
import json
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import create_miner
from repro.datasets import replace_like
from repro.db import TransactionDatabase
from repro.mining import closed
from repro.mining.closed import ClosedConfig, closed_patterns, iter_closed_patterns
from repro.mining.results import Pattern


def scalar_closed(db, minsup):
    """LCM ppc-extension over big-int tidsets, in the miner's order."""
    frequent = db.frequent_items(minsup)
    root = db.closure_of_tidset(db.universe) if db.n_transactions else frozenset()
    if root and db.universe.bit_count() >= minsup:
        yield Pattern(items=root, tidset=db.universe)
    yield from _ppc_expand(db, root, db.universe, -1, frequent, minsup)


def _ppc_expand(db, closed_set, tidset, core_item, frequent, minsup):
    """Extend ``closed_set`` by each item above its core index.

    An extension by ``e`` survives only if the closure of the extended set
    agrees with ``closed_set`` on all items below ``e`` (the
    prefix-preserving condition), so each closed set has one parent.
    """
    for e in frequent:
        if e <= core_item or e in closed_set:
            continue
        new_tidset = tidset & db.item_tidset(e)
        if new_tidset.bit_count() < minsup:
            continue
        closure = db.closure_of_tidset(new_tidset)
        if not _prefix_preserved(closure, closed_set, e):
            continue
        yield Pattern(items=closure, tidset=new_tidset)
        yield from _ppc_expand(db, closure, new_tidset, e, frequent, minsup)


def _prefix_preserved(closure, closed_set, e):
    """True when ``closure`` and ``closed_set`` hold the same items < e.

    The closure contains ``closed_set``, so only one inclusion is checked.
    """
    return all(item >= e or item in closed_set for item in closure)


def sequence(patterns):
    return [(sorted(p.items), p.tidset) for p in patterns]


def sequence_digest(patterns):
    """Order-sensitive digest of items and exact tidsets."""
    key = [(items, format(tidset, "x")) for items, tidset in sequence(patterns)]
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]


@st.composite
def databases(draw):
    """A database and a minsup in ``1..n``; see the module docstring."""
    n_items = draw(st.integers(min_value=1, max_value=150))
    items = st.integers(min_value=0, max_value=n_items - 1)
    used = draw(st.lists(items, min_size=1, max_size=12, unique=True))
    distinct = draw(st.lists(
        st.lists(st.sampled_from(used), max_size=8), min_size=1, max_size=9
    ))
    shared = draw(st.lists(st.sampled_from(used), max_size=3))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    rows = [row + shared for row in rows]
    for position in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(position, [])
    minsup = draw(st.integers(min_value=1, max_value=len(rows)))
    return TransactionDatabase(rows, n_items=n_items), minsup


@given(databases())
@example((  # items 0, 70 and 140 sit in three item words
    TransactionDatabase([[0, 70, 140], [70, 140], [140], [0, 140], []], n_items=150), 1
))
@settings(max_examples=150, deadline=None)
def test_sequence_equals_scalar_recursion(case):
    db, minsup = case
    assert sequence(iter_closed_patterns(db, minsup)) == sequence(scalar_closed(db, minsup))


@given(databases(), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_capped_run_is_the_oracles_prefix(case, cap):
    db, minsup = case
    expected = sequence(islice(scalar_closed(db, minsup), cap))
    assert sequence(closed_patterns(db, minsup, max_patterns=cap).patterns) == expected


class TestCap:
    def test_zero_mines_nothing(self):
        db = TransactionDatabase([[0, 1], [0], [1]], n_items=2)
        assert closed_patterns(db, 1, max_patterns=0).patterns == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda db: closed_patterns(db, 1, max_patterns=-1),
            lambda db: ClosedConfig(max_patterns=-1),
            lambda db: create_miner("closed", minsup=1, max_patterns=-1),
        ],
        ids=["function", "config", "miner"],
    )
    def test_negative_is_refused(self, build):
        db = TransactionDatabase([[0, 1], [0]], n_items=2)
        with pytest.raises(ValueError, match="max_patterns"):
            build(db)


class TestGoldenSequence:
    """Fig. 8's reference set, pinned in order with its exact tidsets."""

    DIGEST = "f8c340ffbdfdd02d"

    def test_replace_sim_at_minsup_132(self):
        db, truth = replace_like()
        assert truth.minsup_absolute == 132
        patterns = closed_patterns(db, 132).patterns
        assert len(patterns) == 4014
        assert sequence_digest(patterns) == self.DIGEST


def test_node_temporaries_stay_within_the_word_budget():
    """A wide database's walk peaks near the budget, not rows × items × words."""
    import tracemalloc

    rng = random.Random(5)
    planted = [rng.sample(range(700), 6) for _ in range(20)]
    rows = []
    for _ in range(3000):
        row = set(rng.sample(range(700), 8))
        if rng.random() < 0.4:
            row.update(rng.choice(planted))
        rows.append(row)
    db = TransactionDatabase(rows, n_items=700)
    packed, _ = db.transaction_rows()  # packed once, before the walk
    assert packed.shape == (3000, 11)
    budget = closed._NODE_WORDS * 8
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_closed_patterns(db, 30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count > 700  # every item, and the planted patterns above them
    # Taking the root's 700 candidates at once peaks at about 28 MB (the
    # candidates' words of all 3000 rows alone are 17 MB); in blocks the
    # walk peaks near 0.9 MB.
    assert peak < 2 * budget


def test_few_rows_with_many_candidates_stay_within_the_budget():
    """Two rows and 7,500 frequent items: the per-item-slot temporaries count."""
    import tracemalloc

    db = TransactionDatabase([range(5000), range(2500, 7500)], n_items=7500)
    db.transaction_rows()
    tracemalloc.start()
    try:
        sizes = [len(p.items) for p in iter_closed_patterns(db, 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [2500, 5000, 5000]
    # Blocks sized by the gathered rows alone let the root's unpacked
    # closures and ppc masks reach about 13 MB; here the walk peaks near
    # 2.6 MB, the patterns' own sets of up to 5,000 item ids included.
    assert peak < 4 * closed._NODE_WORDS * 8


def test_walk_leaves_no_cycle_holding_the_database():
    """Without the cyclic collector, a mined database is freed with its last name."""
    import gc
    import weakref

    db = TransactionDatabase([[0, 1], [0], [1, 2]] * 3, n_items=3)
    freed = weakref.ref(db)
    gc.disable()
    try:
        closed_patterns(db, 1)
        del db
        assert freed() is None
    finally:
        gc.enable()
