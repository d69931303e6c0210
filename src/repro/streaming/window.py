"""A sliding window of transactions.

:class:`SlidingWindowDatabase` is the mutable counterpart of
:class:`repro.db.transaction_db.TransactionDatabase`: transactions ``append``
at the back and ``evict`` from the front (FIFO).  The streaming driver mines
each slide from :meth:`SlidingWindowDatabase.snapshot`, so the window keeps
its rows and nothing else.

Window-local transaction ids follow arrival order (the oldest surviving row
is tid 0), exactly as in the snapshot built from the same rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.db.transaction_db import TransactionDatabase, absolute_minsup

__all__ = ["SlidingWindowDatabase"]


class SlidingWindowDatabase:
    """Mutable FIFO window over a transaction stream.

    Parameters
    ----------
    capacity:
        Optional maximum window length.  When set, ``append`` evicts the
        oldest row(s) automatically once the window is full; when ``None``
        the window only shrinks through explicit :meth:`evict` calls.
    n_items:
        Initial item-universe size.  The universe grows automatically as
        transactions mention new items (it never shrinks — evicting the last
        occurrence of an item leaves a zero-support item behind, matching a
        database built with an explicit ``n_items``).
    """

    def __init__(self, capacity: int | None = None, n_items: int = 0) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        self._capacity = capacity
        self._rows: deque[frozenset[int]] = deque()
        self._n_items = n_items
        self._appends = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        cap = "∞" if self._capacity is None else str(self._capacity)
        return (
            f"SlidingWindowDatabase({len(self)}/{cap} transactions, "
            f"{self._n_items} items, stream position {self._appends})"
        )

    @property
    def capacity(self) -> int | None:
        """Maximum window length (``None`` = unbounded)."""
        return self._capacity

    @property
    def n_transactions(self) -> int:
        """Current window length |W|."""
        return len(self._rows)

    @property
    def n_items(self) -> int:
        """Size of the item universe seen so far."""
        return self._n_items

    @property
    def transactions(self) -> tuple[frozenset[int], ...]:
        """The horizontal view, oldest first (window-local tid order)."""
        return tuple(self._rows)

    def absolute_minsup(self, sigma: float | int) -> int:
        """Resolve a threshold against the *current* window length."""
        return absolute_minsup(sigma, len(self._rows))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, transaction: Iterable[int]) -> int:
        """Add one transaction at the back; returns its global stream position.

        When a ``capacity`` is set and the window is full, the oldest row is
        evicted first, so the window length never exceeds the capacity.
        """
        row = frozenset(transaction)
        for item in row:
            if item < 0:
                raise ValueError(f"item ids must be non-negative, got {item}")
        if self._capacity is not None and len(self._rows) >= self._capacity:
            self.evict()
        self._n_items = max(self._n_items, max(row, default=-1) + 1)
        self._rows.append(row)
        position = self._appends
        self._appends += 1
        return position

    def extend(self, transactions: Iterable[Iterable[int]]) -> int:
        """Append every transaction in order; returns the evictions incurred."""
        before = self._evictions
        for row in transactions:
            self.append(row)
        return self._evictions - before

    def evict(self) -> frozenset[int]:
        """Remove and return the oldest window row."""
        if not self._rows:
            raise IndexError("evict from an empty window")
        self._evictions += 1
        return self._rows.popleft()

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> TransactionDatabase:
        """An immutable :class:`TransactionDatabase` of the current window.

        Window-local tid ``t`` of the snapshot is the window's ``t``-th
        oldest row.  Costs O(window content); the window keeps no reference
        to the snapshot.
        """
        return TransactionDatabase(self._rows, n_items=self._n_items)
