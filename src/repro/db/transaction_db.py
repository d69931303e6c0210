"""The transaction database every miner in this package runs against.

A :class:`TransactionDatabase` holds both views of an itemset database:

* the *horizontal* view — a list of transactions, each a ``frozenset`` of
  dense item ids — which generators and IO produce naturally, and
* the *vertical* view — per item, the bitset of transaction ids containing it
  (see :mod:`repro.db.bitset`) — which miners consume.

Support counting, the closure operator, and minimum-support conversions all
live here so that the miners and the Pattern-Fusion core share one audited
implementation of Lemma 1 territory (tidset intersection).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.db import bitset
from repro.db.encoder import ItemEncoder
from repro.kernels import TidsetMatrix

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TransactionDatabase", "absolute_minsup"]


def absolute_minsup(sigma: float | int, n_transactions: int) -> int:
    """Convert a support threshold into an absolute transaction count.

    ``sigma`` in ``(0, 1]`` is treated as the paper's relative threshold σ
    and rounded up; an integer ``sigma >= 1`` is already absolute.  A
    threshold of 0 is rejected: "frequent" must mean at least one
    supporting transaction.  Shared by :class:`TransactionDatabase`, the
    streaming :class:`repro.streaming.window.SlidingWindowDatabase` and
    :class:`repro.sequences.SequenceDatabase`, so all three resolve
    thresholds identically.
    """
    if sigma <= 0:
        raise ValueError(f"minimum support must be positive, got {sigma}")
    if isinstance(sigma, int) or sigma > 1:
        absolute = int(sigma)
        if absolute != sigma:
            raise ValueError(
                f"absolute minimum support must be integral, got {sigma}"
            )
    else:
        absolute = int(-(-sigma * n_transactions // 1))
    return max(1, absolute)


class TransactionDatabase:
    """Immutable transaction database over dense item ids ``0..n_items-1``.

    Parameters
    ----------
    transactions:
        Iterable of item-id collections.  Each becomes one transaction;
        duplicates across transactions are meaningful (support counts them
        separately), duplicate items *within* a transaction collapse.
    n_items:
        Size of the item universe.  Defaults to one past the largest item id
        seen; pass it explicitly when trailing items may have zero support.
    encoder:
        Optional :class:`ItemEncoder` when the database was built from labeled
        data.  Kept only so results can be decoded; mining ignores it.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        n_items: int | None = None,
        encoder: ItemEncoder | None = None,
    ) -> None:
        rows: list[frozenset[int]] = [frozenset(t) for t in transactions]
        max_item = -1
        for row in rows:
            for item in row:
                if item < 0:
                    raise ValueError(f"item ids must be non-negative, got {item}")
                if item > max_item:
                    max_item = item
        inferred = max_item + 1
        if n_items is None:
            n_items = inferred
        elif n_items < inferred:
            raise ValueError(
                f"n_items={n_items} but a transaction mentions item {max_item}"
            )
        self._transactions: tuple[frozenset[int], ...] = tuple(rows)
        self._n_items = n_items
        self._encoder = encoder
        self._universe = bitset.universe(len(rows))
        masks = [0] * n_items
        for tid, row in enumerate(rows):
            bit = 1 << tid
            for item in row:
                masks[item] |= bit
        self._item_tidsets: tuple[int, ...] = tuple(masks)
        self._item_matrix_cache: TidsetMatrix | None = None
        self._transaction_rows_cache: tuple[np.ndarray, np.ndarray] | None = None

    def item_matrix(self) -> TidsetMatrix:
        """The item tidsets as one matrix, row ``i`` ↔ item ``i``.

        Packed on first use (tiny databases never pay for it).
        """
        if self._item_matrix_cache is None:
            self._item_matrix_cache = TidsetMatrix.from_tidsets(
                self._item_tidsets, n_bits=len(self._transactions)
            )
        return self._item_matrix_cache

    def transaction_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct transactions as item-bit rows, and their multiplicities.

        Returns ``(rows, weights)``: ``rows`` is a read-only
        ``(distinct, ceil(n_items / 64))`` little-endian ``uint64`` array,
        bit ``i`` of a row set iff the transaction holds item ``i``, in
        order of first occurrence; ``weights[r]`` counts the transactions
        equal to row ``r``.  Cached like :meth:`item_matrix`.
        """
        if self._transaction_rows_cache is None:
            import numpy as np

            counts = Counter(self._transactions)  # in order of first occurrence
            rows = TidsetMatrix.from_tidsets(map(bitset.bitset_from_ids, counts), self._n_items)
            weights = np.fromiter(counts.values(), dtype=np.intp, count=len(counts))
            self._transaction_rows_cache = (rows.words, weights)
        return self._transaction_rows_cache

    def __getstate__(self) -> dict:
        # The kernel matrices are derived data; dropping them keeps
        # worker-bound pickles lean.
        state = self.__dict__.copy()
        state["_item_matrix_cache"] = None
        state["_transaction_rows_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_labeled(
        cls, transactions: Iterable[Iterable[Hashable]]
    ) -> "TransactionDatabase":
        """Build a database from transactions over arbitrary hashable labels."""
        encoder = ItemEncoder()
        encoded = [encoder.encode(row) for row in transactions]
        return cls(encoded, n_items=len(encoder), encoder=encoder)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase({len(self)} transactions, "
            f"{self._n_items} items)"
        )

    @property
    def n_transactions(self) -> int:
        """Number of transactions |D|."""
        return len(self._transactions)

    @property
    def n_items(self) -> int:
        """Size of the item universe."""
        return self._n_items

    @property
    def transactions(self) -> tuple[frozenset[int], ...]:
        """The horizontal view: transaction ``tid`` is ``transactions[tid]``."""
        return self._transactions

    @property
    def encoder(self) -> ItemEncoder | None:
        """The label encoder used to build this database, if any."""
        return self._encoder

    @property
    def universe(self) -> int:
        """Bitset of all transaction ids (the tidset of the empty itemset)."""
        return self._universe

    def transaction(self, tid: int) -> frozenset[int]:
        """The item-id set of transaction ``tid``."""
        return self._transactions[tid]

    # ------------------------------------------------------------------
    # Support queries (the heart of Lemma 1)
    # ------------------------------------------------------------------

    def _check_item(self, item: int) -> int:
        if not 0 <= item < self._n_items:
            raise ValueError(f"item {item} outside universe of {self._n_items}")
        return item

    def item_tidset(self, item: int) -> int:
        """Bitset of transactions containing a single item."""
        return self._item_tidsets[self._check_item(item)]

    def tidset(self, itemset: Iterable[int]) -> int:
        """Support set D_α of an itemset, as a bitset.

        By Lemma 1, D_α is the intersection of the single-item tidsets; the
        empty itemset is supported by every transaction.
        """
        result = self._universe
        for item in itemset:
            result &= self.item_tidset(item)
            if result == 0:
                return 0
        return result

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support |D_α|."""
        return self.tidset(itemset).bit_count()

    def tidsets(self, itemsets: Sequence[Iterable[int]]) -> list[int]:
        """Bulk :meth:`tidset`: one support set per itemset, in order.

        Answers equal per-itemset :meth:`tidset` calls.
        """
        return [
            bitset.intersect_all(
                [self.item_tidset(item) for item in itemset],
                start=self._universe,
            )
            for itemset in itemsets
        ]

    def supports(self, itemsets: Sequence[Iterable[int]]) -> list[int]:
        """Bulk :meth:`support`: one absolute support per itemset, in order."""
        return [tidset.bit_count() for tidset in self.tidsets(itemsets)]

    def relative_support(self, itemset: Iterable[int]) -> float:
        """Relative support s(α) = |D_α| / |D| (0.0 for an empty database)."""
        if not self._transactions:
            return 0.0
        return self.support(itemset) / len(self._transactions)

    def absolute_minsup(self, sigma: float | int) -> int:
        """Convert a support threshold into an absolute transaction count.

        See the module-level :func:`absolute_minsup` for the conversion rule.
        """
        return absolute_minsup(sigma, len(self._transactions))

    # ------------------------------------------------------------------
    # Closure operator
    # ------------------------------------------------------------------

    def closure_of_tidset(self, tidset: int) -> frozenset[int]:
        """Items common to every transaction in ``tidset``.

        The closure of the empty tidset is the full item universe (the usual
        Galois-connection convention).
        """
        if tidset == 0:
            return frozenset(range(self._n_items))
        # One batched superset test over every item row (Galois adjoint):
        # item ∈ closure(t) iff t ⊆ tidset(item).
        return frozenset(self.item_matrix().closure_items(tidset))

    def closure(self, itemset: Iterable[int]) -> frozenset[int]:
        """Galois closure of an itemset: all items shared by its supporters.

        Extensive (α ⊆ closure(α)), monotone, idempotent, and support
        preserving — the closed patterns are exactly its fixed points.
        """
        return self.closure_of_tidset(self.tidset(itemset))

    def is_closed(self, itemset: Iterable[int]) -> bool:
        """True when the itemset equals its own closure."""
        items = frozenset(itemset)
        return items == self.closure(items)

    # ------------------------------------------------------------------
    # Frequent single items
    # ------------------------------------------------------------------

    def frequent_items(self, minsup: int) -> list[int]:
        """Item ids with absolute support ≥ ``minsup``, ascending by id."""
        if minsup < 1:
            raise ValueError(f"minsup must be >= 1, got {minsup}")
        return [
            item
            for item, count in enumerate(self.item_matrix().popcounts())
            if count >= minsup
        ]

    # ------------------------------------------------------------------
    # Derived databases
    # ------------------------------------------------------------------

    def restrict_to_items(self, items: Sequence[int]) -> "TransactionDatabase":
        """Project every transaction onto ``items`` (ids are re-densified).

        Returns a database whose item ``j`` corresponds to ``items[j]``.
        """
        keep = list(items)
        index = {item: j for j, item in enumerate(keep)}
        rows = [
            [index[item] for item in row if item in index]
            for row in self._transactions
        ]
        return TransactionDatabase(rows, n_items=len(keep))
