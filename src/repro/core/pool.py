"""A pattern pool held as arrays: item ids and one tidset word matrix.

Algorithm 2 reads its pool in few ways: it draws K seed indices, runs the
r(τ) ball query of each seed over every pool tidset, keeps the K largest
patterns for elitism, and reads the pool's size histogram and itemsets to
decide when to stop.  None of that needs a Python object per pattern, and
the phase-1 pool (the complete set of frequent patterns up to a small size)
runs to hundreds of thousands of patterns.  :class:`Pool` keeps:

* ``items`` — an ``(n, width)`` int64 array, row ``i`` holding pattern
  ``i``'s item ids in ascending order, padded with −1;
* ``matrix`` — the tidsets as one :class:`~repro.kernels.TidsetMatrix`,
  row ``i`` ↔ pattern ``i``, which the ball queries scan and the greedy
  passes gather their balls from;
* ``sizes`` and ``supports`` — int64 arrays derived from those two.

A pool still reads as a ``Sequence[Pattern]``: ``pool[i]`` builds the
:class:`~repro.mining.results.Pattern` when something reads it.  A pool made
by :meth:`Pool.from_patterns` keeps the patterns it was given, hands those
back, and derives its item and support arrays from them when they are
first read (a ball query over a pattern list reads only the matrix).  A
pool pickles as its arrays, which is how a fusion round ships its pool to
the engine's workers.

NumPy is imported when a pool is built, not when this module is.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import TYPE_CHECKING

from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Pool"]


class Pool(Sequence[Pattern]):
    """An immutable pattern pool: ``items`` rows and ``matrix`` rows in step.

    Row order is pool order.  Items within a row ascend, so two rows hold
    the same itemset exactly when they are equal.
    """

    __slots__ = ("_matrix", "_items", "_supports", "_patterns", "_sizes")

    def __init__(
        self,
        matrix: TidsetMatrix,
        items: np.ndarray | None = None,
        supports: np.ndarray | None = None,
        patterns: list[Pattern] | None = None,
    ) -> None:
        """``items`` and ``supports`` may be left out when ``patterns``
        (the pool's patterns, in row order) is given."""
        self._matrix = matrix
        self._items = items
        self._supports = supports
        self._patterns = patterns
        self._sizes: np.ndarray | None = None

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern]) -> "Pool":
        """Pack ``patterns`` in their order; a pool is returned as it is.

        The tidsets are packed with :meth:`TidsetMatrix.from_patterns` at
        the width of the widest tidset, and ``pool[i]`` answers the given
        ``patterns[i]`` itself.
        """
        if isinstance(patterns, Pool):
            return patterns
        patterns = list(patterns)
        return cls(TidsetMatrix.from_patterns(patterns), patterns=patterns)

    def __reduce__(self) -> tuple:
        # The arrays only: a worker builds any pattern it reads.
        return (Pool, (self._matrix, self.items, self.supports))

    # ------------------------------------------------------------------
    # Arrays
    # ------------------------------------------------------------------

    @property
    def items(self) -> np.ndarray:
        """Item ids, one ascending row per pattern, padded with −1."""
        if self._items is None:
            self._items = _item_rows(self._patterns)
        return self._items

    @property
    def matrix(self) -> TidsetMatrix:
        """The tidsets, row ``i`` ↔ ``pool[i]``."""
        return self._matrix

    @property
    def sizes(self) -> np.ndarray:
        """``|α|`` of every pattern, as an int64 array."""
        if self._sizes is None:
            import numpy as np

            self._sizes = np.count_nonzero(self.items >= 0, axis=1)
        return self._sizes

    @property
    def supports(self) -> np.ndarray:
        """``|D_α|`` of every pattern, as an int64 array."""
        if self._supports is None:
            import numpy as np

            self._supports = np.fromiter(
                (p.support for p in self._patterns), dtype=np.int64,
                count=len(self._patterns),
            )
        return self._supports

    # ------------------------------------------------------------------
    # Sequence[Pattern]
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._matrix)

    def __getitem__(self, index: int | slice) -> "Pattern | list[Pattern]":
        if isinstance(index, slice):
            return self.patterns_at(range(len(self))[index])
        if self._patterns is not None:
            return self._patterns[index]
        row = range(len(self))[index]  # IndexError and negative indices
        return Pattern(
            items=frozenset(self._items[row, :self.sizes[row]].tolist()),
            tidset=self._matrix.row(row),
        )

    def __iter__(self) -> Iterator[Pattern]:
        if self._patterns is not None:
            return iter(self._patterns)
        return iter(self.patterns_at(range(len(self))))

    def patterns_at(self, rows: Sequence[int] | np.ndarray) -> list[Pattern]:
        """``[pool[i] for i in rows]``, built in bulk."""
        import numpy as np

        if self._patterns is not None:
            return [self._patterns[i] for i in np.asarray(rows).tolist()]
        index = np.asarray(rows, dtype=np.intp)
        width = self._matrix.words.shape[1] * 8
        raw = self._matrix.words[index].tobytes()
        return [
            Pattern(
                items=frozenset(row[:size]),
                tidset=int.from_bytes(raw[j * width:(j + 1) * width], "little"),
            )
            for j, (row, size) in enumerate(
                zip(self._items[index].tolist(), self.sizes[index].tolist())
            )
        ]

    # ------------------------------------------------------------------
    # What the fusion loop reads
    # ------------------------------------------------------------------

    def largest(self, k: int) -> list[Pattern]:
        """The ``k`` most colossal patterns, as ``largest_patterns(pool, k)``.

        Larger patterns first, then higher support, then ascending item
        ids (:func:`~repro.mining.results.colossal_rank_key`).  Rows of
        equal size are padded alike, so their item columns compare as the
        item tuples do.
        """
        import numpy as np

        n = len(self)
        if k <= 0 or n == 0:
            return []
        items, sizes, supports = self.items, self.sizes, self.supports
        candidates = np.arange(n)
        if k < n:
            rank = sizes * (int(supports.max()) + 1) + supports
            cut = np.partition(rank, n - k)[n - k]
            candidates = np.flatnonzero(rank >= cut)
        keys = [items[candidates, column]
                for column in range(items.shape[1] - 1, -1, -1)]
        keys += [-supports[candidates], -sizes[candidates]]
        return self.patterns_at(candidates[np.lexsort(keys)][:k])

    def size_signature(self) -> tuple[tuple[int, int], ...]:
        """The pattern-size histogram as sorted ``(size, count)`` pairs."""
        import numpy as np

        sizes, counts = np.unique(self.sizes, return_counts=True)
        return tuple(zip(sizes.tolist(), counts.tolist()))

    def same_itemsets(self, other: "Pool") -> bool:
        """Whether both pools hold the same set of itemsets."""
        import numpy as np

        # Different size sets decide it without padding a phase-1 pool out
        # to the width of the fused patterns.
        if not np.array_equal(np.unique(self.sizes), np.unique(other.sizes)):
            return False
        width = max(self.items.shape[1], other.items.shape[1])
        return np.array_equal(
            _distinct_rows(self.items, width), _distinct_rows(other.items, width)
        )


def _distinct_rows(items: np.ndarray, width: int) -> np.ndarray:
    """The distinct rows of ``items`` padded with −1 to ``width``, sorted."""
    import numpy as np

    rows = np.pad(items, ((0, 0), (0, width - items.shape[1])), constant_values=-1)
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def _item_rows(patterns: list[Pattern]) -> np.ndarray:
    """The patterns' items as ascending rows padded with −1 (≥ 1 column)."""
    import numpy as np

    sizes = np.fromiter(map(len, (p.items for p in patterns)), dtype=np.int64,
                        count=len(patterns))
    top = np.iinfo(np.int64).max  # sorts after every item id, then becomes −1
    rows = np.full((len(patterns), int(sizes.max(initial=1))), top, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < sizes[:, np.newaxis]] = np.fromiter(
        chain.from_iterable(p.items for p in patterns), dtype=np.int64,
        count=int(sizes.sum()),
    )
    rows.sort(axis=1)
    rows[rows == top] = -1
    return rows
