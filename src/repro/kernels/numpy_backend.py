"""NumPy backend: tidsets packed into an N×W ``uint64`` word array.

Each tidset occupies ``W = ceil(n_bits / 64)`` little-endian words, so the
whole matrix is one contiguous 2-D array and every primitive is a handful of
vectorized word operations: AND/OR broadcast against a packed query row,
popcount via :func:`numpy.bitwise_count` (an 8-bit lookup table on NumPy
builds that predate it), boolean row reductions for superset/intersection
masks.  Intersection counts, union counts, distance rows and
``rows_within`` share one cache-resident pass per query (preallocated
temporaries, BLAS matvec row sums); the all-pairs distance matrix goes
through a float32 bit-plane GEMM, which turns N² popcounts into one BLAS
call while staying exact (counts < 2^24).

Counts are exact integers and distances are the same ``1 - |∩| / |∪|``
float64 division the stdlib backend performs, so results are bit-identical
across backends (see :mod:`repro.kernels.matrix`).

This module is only imported when the numpy backend is selected, so
importing the package never loads numpy (the greedy fusion passes import
it lazily too).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kernels.matrix import TidsetMatrix

__all__ = ["NumpyTidsetMatrix"]

#: Bit budget for the all-pairs distance matrix's unpacked bit planes (the
#: float32 planes cost 5 bytes per bit): ~600 MiB of temporaries at most.
_PLANE_BUDGET_BITS = 128 * 1024 * 1024

_POPCOUNT_LUT: np.ndarray | None = None


def _word_popcounts(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D uint64 word array → int64 vector."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    # Pre-2.0 NumPy: 8-bit lookup table over the raw bytes.
    global _POPCOUNT_LUT
    if _POPCOUNT_LUT is None:
        _POPCOUNT_LUT = np.array(
            [bin(value).count("1") for value in range(256)], dtype=np.uint8
        )
    raw = words.reshape(*words.shape[:-1], -1).view(np.uint8)
    return _POPCOUNT_LUT[raw].sum(axis=-1, dtype=np.int64)


class NumpyTidsetMatrix(TidsetMatrix):
    """Packed-word implementation of :class:`repro.kernels.TidsetMatrix`."""

    backend = "numpy"

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
            self._pops = _word_popcounts(self._words)
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
            query_pop = int(_word_popcounts(words[np.newaxis, :])[0]) + excess
            np.bitwise_and(self._words, words, out=tmp)
            if matvec_sum:
                np.bitwise_count(tmp, out=counts)
                intersections = (
                    counts.astype(np.float32) @ ones
                ).astype(np.int64)
            else:
                intersections = _word_popcounts(tmp)
            yield intersections, query_pop

    def intersection_counts(self, query: int) -> np.ndarray:
        (intersections, _), = self._intersections([query])
        return intersections

    def union_counts(self, query: int) -> list[int]:
        (intersections, query_pop), = self._intersections([query])
        return (self._pops_internal() + query_pop - intersections).tolist()

    def _distances(
        self, queries: Iterable[int], empty: float
    ) -> Iterator[np.ndarray]:
        """The float64 distance row of each query (``empty`` on no union)."""
        pops = self._pops_internal()
        for intersections, query_pop in self._intersections(queries):
            unions = pops + query_pop - intersections
            with np.errstate(divide="ignore", invalid="ignore"):
                distances = 1.0 - intersections / unions
            yield np.where(unions == 0, empty, distances)

    def jaccard_distance_rows(
        self, queries: Sequence[int], empty: float = 0.0
    ) -> list[list[float]]:
        return [row.tolist() for row in self._distances(queries, empty)]

    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[np.ndarray]:
        return [
            np.flatnonzero(row <= radius).astype(np.int64, copy=False)
            for row in self._distances(queries, 0.0)
        ]

    def jaccard_distance_matrix(self, empty: float = 0.0) -> np.ndarray:
        if self._n_rows == 0:
            return np.zeros((0, 0), dtype=np.float64)
        if self._n_bits >= (1 << 24) or (
            self._n_rows * self._n_words * 64 > _PLANE_BUDGET_BITS
        ):
            # Bit-plane GEMM would lose exactness past 2^24 bits per row
            # (float32 integer range) or blow the memory budget; fall back
            # to the row-at-a-time path (which drops to exact int64 sums in
            # the same wide regime) and stack.
            rows = self.jaccard_distance_rows(
                [self.row(i) for i in range(self._n_rows)], empty=empty
            )
            return np.array(rows, dtype=np.float64)
        # All-pairs intersections as one float32 GEMM over 0/1 bit planes:
        # |row_i ∩ row_j| = Σ_b plane[i,b]·plane[j,b].  Counts are ≤ n_bits
        # < 2^24, so every product and partial sum is an exact float32
        # integer — bit-identical to the big-int popcounts.
        planes = np.unpackbits(
            self._words.view(np.uint8), axis=1, bitorder="little"
        ).astype(np.float32)
        intersections = (planes @ planes.T).astype(np.float64)
        pops = self._pops_internal().astype(np.float64)
        unions = np.add.outer(pops, pops)
        unions -= intersections
        # In-place from here on: the N² temporaries dominate the cost.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(intersections, unions, out=intersections)
        np.subtract(1.0, intersections, out=intersections)
        np.copyto(intersections, empty, where=(unions == 0.0))
        return intersections

    def superset_mask(self, query: int) -> int:
        words, excess = self._pack_query(query)
        if excess:
            return 0  # the query has ids no row's universe even covers
        return self._positions_mask(
            ((words & ~self._words) == 0).all(axis=1)
        )

    def intersects_mask(self, query: int) -> int:
        words, _ = self._pack_query(query)
        return self._positions_mask((self._words & words).any(axis=1))

    def intersect_reduce(
        self, rows: Sequence[int] | None = None, start: int | None = None
    ) -> int:
        if rows is None:
            selected = self._words
        else:
            selected = self._words[np.asarray(list(rows), dtype=np.intp)]
        if selected.shape[0] == 0:
            if start is None:
                raise ValueError("intersect_reduce() of no rows is undefined")
            return start
        reduced = np.bitwise_and.reduce(selected, axis=0)
        value = int.from_bytes(reduced.tobytes(), "little")
        return value if start is None else value & start

    def union_reduce(
        self, rows: Sequence[int] | None = None, start: int = 0
    ) -> int:
        if rows is None:
            selected = self._words
        else:
            selected = self._words[np.asarray(list(rows), dtype=np.intp)]
        if selected.shape[0] == 0:
            return start
        reduced = np.bitwise_or.reduce(selected, axis=0)
        return int.from_bytes(reduced.tobytes(), "little") | start
