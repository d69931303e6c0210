"""The tidset kernel implementation: tidsets packed into an N×W ``uint64`` array.

Each tidset occupies ``W = ceil(n_bits / 64)`` little-endian words, so the
whole matrix is one contiguous 2-D array and every primitive is a handful of
vectorized word operations: AND broadcast against a packed query row,
popcount via :func:`numpy.bitwise_count` (an 8-bit lookup table on NumPy
builds that predate it, which ``numpy>=1.24`` still allows), boolean row
reductions for superset masks.  Intersection counts and ``rows_within``
share one cache-resident pass per query (preallocated temporaries, BLAS
matvec row sums for rows of several words); ``rows_within`` hands back the
counts of the rows it keeps.

Counts are exact integers.  ``rows_within`` never divides per row: a row
is within ``r`` of the query iff its intersection count reaches
``need[|∪|]``, the least count ``i`` whose distance ``1 - i / |∪|`` — the
same float64 division :func:`repro.core.distance.tidset_distance` performs
on big ints — is ``<= r``.  For a fixed union size that distance is
monotone in ``i`` (correctly rounded division and subtraction are), so the
one integer compare keeps exactly the rows the distance filter keeps, and
results are bit-identical to the naive big-int math (see
:mod:`repro.kernels.matrix`).  The table is built once per call.

This module is imported when the first matrix is built, so importing the
package never loads numpy (the greedy fusion passes import it lazily too).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

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

    @property
    def row_popcounts(self) -> np.ndarray:
        if self._pops is None:
            self._pops = word_popcounts(self._words)
        return self._pops

    def _intersections(
        self, packed: Sequence[tuple[np.ndarray, int]]
    ) -> Iterator[np.ndarray]:
        """``|row_i ∩ q|`` per row for each packed query, one pass each.

        Counts come in the narrowest unsigned dtype that holds ``n_bits``,
        in a buffer the next query may reuse.  Per-query passes over
        preallocated word-sized temporaries: the whole packed matrix stays
        cache-resident across queries, where a broadcast over many queries
        at once would stream a Q×N×W temporary through main memory
        instead.  One-word rows take their counts straight from the
        popcount; wider rows sum theirs with a BLAS matvec when that is
        exact (per-word counts ≤ 64 and n_bits < 2^24, so every float32
        partial sum is an exactly-represented integer); otherwise — pre-2.0
        NumPy, or rows too wide for float32 integer range — the generic
        int64 popcount reduction runs instead.
        """
        narrow = np.min_scalar_type(self._n_bits)
        native = hasattr(np, "bitwise_count")
        matvec_sum = native and self._n_bits < (1 << 24)
        tmp = np.empty_like(self._words)
        counts = np.empty(self._words.shape, dtype=np.uint8)
        ones = np.ones(self._n_words, dtype=np.float32)
        for words, _ in packed:
            np.bitwise_and(self._words, words, out=tmp)
            if native and self._n_words == 1:  # n_bits ≤ 64: already uint8
                np.bitwise_count(tmp, out=counts)
                yield counts[:, 0]
            elif matvec_sum:
                np.bitwise_count(tmp, out=counts)
                yield (counts.astype(np.float32) @ ones).astype(narrow)
            else:
                yield word_popcounts(tmp).astype(narrow)

    def intersection_counts(self, query: int) -> np.ndarray:
        intersections, = self._intersections([self._pack_query(query)])
        return intersections.astype(np.int64)

    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        if not queries:
            return []
        packed = [self._pack_query(query) for query in queries]
        query_pops = [
            int(word_popcounts(words[np.newaxis, :])[0]) + excess
            for words, excess in packed
        ]
        largest = int(self.row_popcounts.max(initial=0)) + max(query_pops)
        need = _least_counts(largest, radius)
        # Union sizes never exceed ``largest``: uint8 on a 38-transaction
        # database.
        unions = np.empty(self._n_rows, dtype=np.min_scalar_type(largest))
        pops = self.row_popcounts.astype(unions.dtype)
        needed = np.empty(self._n_rows, dtype=need.dtype)
        keep = np.empty(self._n_rows, dtype=bool)
        balls = []
        for intersections, query_pop in zip(
            self._intersections(packed), query_pops
        ):
            np.add(pops, query_pop, out=unions)
            np.subtract(unions, intersections, out=unions)
            np.take(need, unions, out=needed)
            np.greater_equal(intersections, needed, out=keep)
            rows = np.flatnonzero(keep).astype(np.int64, copy=False)
            balls.append((rows, intersections[rows]))
        return balls

    def superset_mask(self, query: int) -> int:
        words, excess = self._pack_query(query)
        if excess:
            return 0  # the query has ids no row's universe even covers
        return self._positions_mask(
            ((words & ~self._words) == 0).all(axis=1)
        )


def _least_counts(largest: int, radius: float) -> np.ndarray:
    """``need[u]``: the least count ``i`` with ``1.0 - i / u <= radius``.

    One entry per union size ``u`` in ``0..largest``; two empty sets are at
    distance 0.0, so ``need[0]`` is 0 when ``0.0 <= radius``.  Where no
    count qualifies, ``need[u] = u + 1``, which no count reaches.  A
    closed-form guess, ``ceil(u·(1 − r))``, is corrected by the exact
    float64 test until it is the boundary: the test is monotone in ``i``,
    so the least ``i`` that passes is where ``i − 1`` fails.
    """
    sizes = np.arange(largest + 1, dtype=np.int64)
    dtype = np.min_scalar_type(largest + 1)
    if not radius >= 0.0:  # negative or NaN: not even equal sets qualify
        return (sizes + 1).astype(dtype)
    u = sizes[1:]
    need = np.clip(np.ceil(u * (1.0 - radius)), 0, u).astype(np.int64)
    # ``need = u`` always passes (distance 0.0 <= radius), so the
    # corrections stay inside ``0..u``.
    while True:
        down = (need > 0) & (1.0 - (need - 1) / u <= radius)
        if not down.any():
            break
        need -= down
    while True:
        up = ~(1.0 - need / u <= radius)
        if not up.any():
            break
        need += up
    return np.concatenate(([0], need)).astype(dtype)
