"""The tidset kernel implementation: tidsets packed into an N×W ``uint64`` array.

Each tidset occupies ``W = ceil(n_bits / 64)`` little-endian words, so the
whole matrix is one contiguous 2-D array and every primitive is a handful of
vectorized word operations: AND broadcast against a packed query row,
popcount via :func:`numpy.bitwise_count` (an 8-bit lookup table on NumPy
builds that predate it, which ``numpy>=1.24`` still allows), boolean row
reductions for superset masks.  Intersection counts and ``rows_within``
share one cache-resident pass per query (preallocated temporaries, BLAS
matvec row sums); ``rows_within`` hands back the counts of the rows it
keeps.

Counts are exact integers and distances are the same ``1 - |∩| / |∪|``
float64 division :func:`repro.core.distance.tidset_distance` performs on
big ints, so results are bit-identical to the naive big-int math (see
:mod:`repro.kernels.matrix`).

This module is imported when the first matrix is built, so importing the
package never loads numpy (the greedy fusion passes import it lazily too).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kernels.matrix import TidsetMatrix

__all__ = ["NumpyTidsetMatrix", "word_popcounts"]

_POPCOUNT_LUT: np.ndarray | None = None


def word_popcounts(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """Popcount of a 2-D uint64 word array summed along ``axis`` → int64.

    ``axis=-1`` (the default) counts each row, ``axis=0`` each column.
    The sum runs in the narrowest unsigned type that holds 64 bits per
    summed word, which is exact and faster than an int64 accumulator.
    """
    if hasattr(np, "bitwise_count"):
        total = np.min_scalar_type(64 * words.shape[axis])
        return np.bitwise_count(words).sum(axis=axis, dtype=total).astype(np.int64)
    # Pre-2.0 NumPy: 8-bit lookup table over the raw bytes of each word.
    global _POPCOUNT_LUT
    if _POPCOUNT_LUT is None:
        _POPCOUNT_LUT = np.array(
            [bin(value).count("1") for value in range(256)], dtype=np.uint8
        )
    raw = np.ascontiguousarray(words).view(np.uint8).reshape(*words.shape, 8)
    return _POPCOUNT_LUT[raw].sum(axis=-1, dtype=np.int64).sum(axis=axis)


class NumpyTidsetMatrix(TidsetMatrix):
    """Packed-word implementation of :class:`repro.kernels.TidsetMatrix`."""

    __slots__ = ("_words", "_n_rows", "_n_bits", "_n_words", "_pops")

    def __init__(self, rows: list[int], n_bits: int) -> None:
        self._n_rows = len(rows)
        self._n_bits = n_bits
        self._n_words = max(1, -(-n_bits // 64))
        width = self._n_words * 8
        if rows:
            buffer = b"".join(row.to_bytes(width, "little") for row in rows)
            self._words = np.frombuffer(buffer, dtype="<u8").reshape(
                self._n_rows, self._n_words
            )
        else:
            self._words = np.zeros((0, self._n_words), dtype=np.uint64)
        self._pops: np.ndarray | None = None

    @classmethod
    def from_words_buffer(
        cls, buffer: object, n_rows: int, n_bits: int
    ) -> "NumpyTidsetMatrix":
        """Wrap an already-packed word buffer as a matrix, **zero copy**.

        The words array is a ``np.frombuffer`` view of ``buffer`` — when the
        buffer is a memoryview over an ``mmap``, the file pages *are* the
        matrix (read-only; no kernel primitive writes to ``_words``), and
        the array's base reference keeps the mapping alive.  Packing is
        skipped entirely, which is what makes a binary-format cold open
        O(1) in the pool size.
        """
        n_words = max(1, -(-n_bits // 64))
        words = np.frombuffer(buffer, dtype="<u8", count=n_rows * n_words)
        return cls._wrap(words.reshape(n_rows, n_words), n_bits)

    @classmethod
    def _wrap(
        cls, words: np.ndarray, n_bits: int, pops: np.ndarray | None = None
    ) -> "NumpyTidsetMatrix":
        """A matrix over an already-packed ``(rows, W)`` word array."""
        matrix = object.__new__(cls)
        matrix._n_rows = words.shape[0]
        matrix._n_bits = n_bits
        matrix._n_words = words.shape[1]
        matrix._words = words
        matrix._pops = pops
        return matrix

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_bits(self) -> int:
        return self._n_bits

    @property
    def words(self) -> np.ndarray:
        return self._words

    def row(self, index: int) -> int:
        if not 0 <= index < self._n_rows:
            raise IndexError(f"row {index} out of range [0, {self._n_rows})")
        return int.from_bytes(self._words[index].tobytes(), "little")

    def take(self, rows: Sequence[int]) -> "NumpyTidsetMatrix":
        index = np.asarray(rows, dtype=np.intp)
        pops = None if self._pops is None else self._pops[index]
        return self._wrap(self._words[index], self._n_bits, pops)

    # ------------------------------------------------------------------
    # Query packing
    # ------------------------------------------------------------------

    def _pack_query(self, query: int) -> tuple[np.ndarray, int]:
        """Pack a query tidset into W words; return (words, excess-bit count).

        Bits beyond the matrix width cannot intersect any row; they only
        matter for union sizes and (non-)superset answers, so their popcount
        travels separately.
        """
        if query < 0:
            raise ValueError("tidsets are non-negative integers")
        low = query & ((1 << (self._n_words * 64)) - 1)
        words = np.frombuffer(
            low.to_bytes(self._n_words * 8, "little"), dtype="<u8"
        )
        return words, (query >> (self._n_words * 64)).bit_count()

    def _positions_mask(self, selected: np.ndarray) -> int:
        """Boolean row vector → big-int bitmask over row positions."""
        if selected.size == 0:
            return 0
        packed = np.packbits(selected, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------

    def _pops_internal(self) -> np.ndarray:
        if self._pops is None:
            self._pops = word_popcounts(self._words)
        return self._pops

    def popcounts(self) -> list[int]:
        return self._pops_internal().tolist()

    def _intersections(
        self, queries: Iterable[int]
    ) -> Iterator[tuple[np.ndarray, int]]:
        """``(|row_i ∩ q|`` as int64, ``|q|)`` for each query, one pass each.

        Per-query passes over preallocated word-sized temporaries: the
        whole packed matrix stays cache-resident across queries, where a
        broadcast over many queries at once would stream a Q×N×W temporary
        through main memory instead.  When exact, the row sum rides a BLAS
        matvec (per-word counts ≤ 64 and n_bits < 2^24, so every float32
        partial sum is an exactly-represented integer); otherwise — pre-2.0
        NumPy, or rows too wide for float32 integer range — the generic
        int64 popcount reduction runs instead.
        """
        matvec_sum = (
            hasattr(np, "bitwise_count") and self._n_bits < (1 << 24)
        )
        tmp = np.empty_like(self._words)
        counts = np.empty(self._words.shape, dtype=np.uint8)
        ones = np.ones(self._n_words, dtype=np.float32)
        for query in queries:
            words, excess = self._pack_query(query)
            query_pop = int(word_popcounts(words[np.newaxis, :])[0]) + excess
            np.bitwise_and(self._words, words, out=tmp)
            if matvec_sum:
                np.bitwise_count(tmp, out=counts)
                intersections = (
                    counts.astype(np.float32) @ ones
                ).astype(np.int64)
            else:
                intersections = word_popcounts(tmp)
            yield intersections, query_pop

    def intersection_counts(self, query: int) -> np.ndarray:
        (intersections, _), = self._intersections([query])
        return intersections

    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        pops = self._pops_internal()
        # Counts never exceed n_bits: uint8 on a 38-transaction database.
        narrow = np.min_scalar_type(self._n_bits)
        balls = []
        for intersections, query_pop in self._intersections(queries):
            unions = pops + query_pop - intersections
            with np.errstate(divide="ignore", invalid="ignore"):
                distances = 1.0 - intersections / unions
            distances = np.where(unions == 0, 0.0, distances)
            rows = np.flatnonzero(distances <= radius).astype(np.int64, copy=False)
            balls.append((rows, intersections[rows].astype(narrow)))
        return balls

    def superset_mask(self, query: int) -> int:
        words, excess = self._pack_query(query)
        if excess:
            return 0  # the query has ids no row's universe even covers
        return self._positions_mask(
            ((words & ~self._words) == 0).all(axis=1)
        )
