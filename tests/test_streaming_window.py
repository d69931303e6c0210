"""Property tests: SlidingWindowDatabase holds the rows a FIFO of them would."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import TransactionDatabase
from repro.streaming import SlidingWindowDatabase

# A row is a small item-id list; a step either appends a row or (None) evicts.
_row = st.lists(st.integers(min_value=0, max_value=9), max_size=5)
_steps = st.lists(st.one_of(_row, st.none()), max_size=40)


def _apply(steps, capacity=None):
    """Drive a window through a step sequence, mirroring it in a plain list."""
    window = SlidingWindowDatabase(capacity=capacity)
    mirror: list[frozenset[int]] = []
    for step in steps:
        if step is None:
            if mirror:
                evicted = window.evict()
                assert evicted == mirror.pop(0)
        else:
            window.append(step)
            mirror.append(frozenset(step))
            if capacity is not None and len(mirror) > capacity:
                mirror.pop(0)
    return window, mirror


def _assert_agrees(window: SlidingWindowDatabase, mirror: list[frozenset[int]]):
    """The window and its snapshot hold the mirror's rows, in order."""
    db = TransactionDatabase(mirror, n_items=window.n_items)
    assert window.transactions == db.transactions
    assert window.n_transactions == db.n_transactions
    snapshot = window.snapshot()
    assert snapshot.transactions == db.transactions
    assert snapshot.n_items == window.n_items
    for item in range(window.n_items):
        assert snapshot.item_tidset(item) == db.item_tidset(item)


class TestAgainstDirectDatabase:
    @settings(max_examples=60, deadline=None)
    @given(steps=_steps)
    def test_manual_append_evict(self, steps):
        window, mirror = _apply(steps, capacity=None)
        _assert_agrees(window, mirror)

    @settings(max_examples=60, deadline=None)
    @given(steps=_steps, capacity=st.integers(min_value=1, max_value=6))
    def test_capacity_bounded(self, steps, capacity):
        window, mirror = _apply(steps, capacity=capacity)
        assert len(window) <= capacity
        _assert_agrees(window, mirror)


class TestBookkeeping:
    def test_stream_positions(self):
        window = SlidingWindowDatabase(capacity=2)
        assert window.append([0]) == 0
        assert window.append([1]) == 1
        assert window.append([2]) == 2  # evicts [0]
        assert window.transactions == (frozenset([1]), frozenset([2]))

    def test_extend_reports_evictions(self):
        window = SlidingWindowDatabase(capacity=3)
        assert window.extend([[0], [1]]) == 0
        assert window.extend([[2], [3], [4]]) == 2

    def test_universe_grows_with_items(self):
        window = SlidingWindowDatabase()
        window.append([2])
        assert window.n_items == 3
        window.append([7])
        assert window.n_items == 8
        assert window.snapshot().item_tidset(2) == 0b01
        assert window.snapshot().item_tidset(7) == 0b10

    def test_evicting_last_item_occurrence_keeps_universe(self):
        window = SlidingWindowDatabase()
        window.append([5])
        window.append([0])
        window.evict()
        assert window.n_items == 6
        assert window.snapshot().item_tidset(5) == 0
        assert window.snapshot().n_items == 6

    def test_relative_support_and_minsup(self):
        window = SlidingWindowDatabase()
        for row in ([0, 1], [0], [1], [0, 1]):
            window.append(row)
        assert window.absolute_minsup(0.5) == 2
        assert window.absolute_minsup(3) == 3

    def test_batch_larger_than_capacity(self):
        window = SlidingWindowDatabase(capacity=2)
        window.extend([[0], [1], [2], [3], [4]])
        assert window.transactions == (frozenset([3]), frozenset([4]))


class TestValidation:
    def test_evict_empty_raises(self):
        with pytest.raises(IndexError):
            SlidingWindowDatabase().evict()

    def test_negative_item_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowDatabase().append([-1])

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowDatabase(capacity=0)

    def test_empty_window_queries(self):
        window = SlidingWindowDatabase(n_items=3)
        assert window.snapshot().n_items == 3
        assert len(window.snapshot()) == 0
