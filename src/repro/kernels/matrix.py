"""``TidsetMatrix``: N tidsets packed for batched bitset kernels.

One matrix is built per pool (or per database's item tidsets) and then every
hot-loop primitive — popcounts, intersection sizes against a query tidset,
the rows within a Definition 6 ball radius (Theorem 2), superset masks (the
closure operator's test) — is answered for *all rows at once*.  Each tidset
occupies ``W = ceil(n_bits / 64)`` little-endian words, so the whole matrix
is one contiguous N×W ``uint64`` array and every primitive is a handful of
vectorized word operations: AND broadcast against a packed query row,
popcount via :func:`numpy.bitwise_count` (an 8-bit lookup table on NumPy
builds that predate it, which ``numpy>=1.24`` still allows), boolean row
reductions for superset masks.  Intersection counts and ``rows_within``
share one pass over the matrix per call: it walks the rows in blocks of
about ``_BLOCK_WORDS`` words and answers every query of the call over a
block while the block is in cache, with block-sized temporaries allocated
once per call (BLAS matvec row sums for rows of several words).

Counts are exact integers.  ``rows_within`` never divides per row: a row
is within ``r`` of the query iff its intersection count reaches
``need[|∪|]``, the least count ``i`` whose distance ``1 - i / |∪|`` — the
same float64 division :func:`repro.core.distance.tidset_distance` performs
on big ints — is ``<= r``.  For a fixed union size that distance is
monotone in ``i`` (correctly rounded division and subtraction are), so the
one integer compare keeps exactly the rows the distance filter keeps, and
results are bit-identical to the naive big-int math; the property tests in
``tests/test_kernels.py`` pin this on random matrices.  The table is built
once per call.

Most primitives return plain Python values (``int`` masks, ``list`` of
``int``).  Three answer NumPy arrays, because their callers compute on
arrays: :attr:`~TidsetMatrix.row_popcounts` (an int64 popcount per row),
:meth:`~TidsetMatrix.intersection_counts` (an int64 count per row) and
:meth:`~TidsetMatrix.rows_within` (the row indices of each ball, with
their intersection counts, which fusion takes as each seed's first greedy
level).

NumPy is imported when the first matrix is built, not when this module is.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.obs import metrics

if TYPE_CHECKING:  # avoid an import cycle at runtime
    import numpy as np

    from repro.mining.results import Pattern

__all__ = ["TidsetMatrix", "word_popcounts"]

# Builds inside engine worker processes land in *their* registries and stay
# there; this series reflects driver/serial construction only.
_MATRIX_BUILDS = metrics.counter(
    "repro_kernel_matrix_builds_total", "TidsetMatrix constructions"
)

_POPCOUNT_LUT: np.ndarray | None = None

#: A ball pass walks the matrix in row blocks of about this many words
#: (256 KiB), in words rather than rows so that one-word and wide pools
#: alike keep a block and its temporaries in cache across the queries.
_BLOCK_WORDS = 1 << 15


def word_popcounts(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """Popcount of a 2-D uint64 word array summed along ``axis`` → int64.

    ``axis=-1`` (the default) counts each row, ``axis=0`` each column.
    The sum runs in the narrowest unsigned type that holds 64 bits per
    summed word, which is exact and faster than an int64 accumulator.
    """
    import numpy as np

    if hasattr(np, "bitwise_count"):
        total = np.min_scalar_type(64 * words.shape[axis])
        return np.bitwise_count(words).sum(axis=axis, dtype=total).astype(np.int64)
    raw = np.ascontiguousarray(words).view(np.uint8).reshape(*words.shape, 8)
    return _popcount_lut()[raw].sum(axis=-1, dtype=np.int64).sum(axis=axis)


def _popcount_lut() -> np.ndarray:
    """Pre-2.0 NumPy's popcount: an 8-bit lookup table over raw bytes."""
    import numpy as np

    global _POPCOUNT_LUT
    if _POPCOUNT_LUT is None:
        _POPCOUNT_LUT = np.array(
            [bin(value).count("1") for value in range(256)], dtype=np.uint8
        )
    return _POPCOUNT_LUT


class TidsetMatrix:
    """Immutable matrix of N tidsets over a ``n_bits``-wide transaction universe.

    Build once with :meth:`from_tidsets` / :meth:`from_patterns` /
    :meth:`from_words_buffer`; every query method is read-only and side-effect
    free.  Row order is construction order, and the row masks returned by
    :meth:`superset_mask` are big-int bitmasks over *row positions*, bit
    ``i`` ↔ row ``i``.
    """

    __slots__ = ("_words", "_n_bits", "_pops")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        """Wrap a packed ``(rows, W)`` word array (see :attr:`words`)."""
        self._words = words
        self._n_bits = n_bits
        self._pops: np.ndarray | None = None

    @staticmethod
    def from_tidsets(
        tidsets: Iterable[int], n_bits: int | None = None
    ) -> "TidsetMatrix":
        """Pack an iterable of tidset bitmasks into a matrix.

        ``n_bits`` fixes the universe width (it must cover every tidset);
        by default the width of the widest tidset is used.
        """
        import numpy as np

        rows = list(tidsets)
        widest = 0
        for tidset in rows:
            if tidset < 0:
                raise ValueError("tidsets are non-negative integers")
            length = tidset.bit_length()
            if length > widest:
                widest = length
        if n_bits is None:
            n_bits = widest
        elif n_bits < widest:
            raise ValueError(
                f"n_bits={n_bits} but a tidset has bit length {widest}"
            )
        n_words = max(1, -(-n_bits // 64))
        width = n_words * 8
        # Each row is written into the matrix as it is converted, so the
        # only full-size allocation is the matrix itself.
        words = np.empty((len(rows), n_words), dtype="<u8")
        raw = memoryview(words.reshape(-1).view(np.uint8))
        for index, tidset in enumerate(rows):
            raw[index * width:(index + 1) * width] = tidset.to_bytes(width, "little")
        words.flags.writeable = False
        _MATRIX_BUILDS.inc()
        return TidsetMatrix(words, n_bits)

    @staticmethod
    def from_words_buffer(buffer: Any, n_rows: int, n_bits: int) -> "TidsetMatrix":
        """Wrap pre-packed little-endian uint64 row words without repacking.

        ``buffer`` is any bytes-like of exactly ``n_rows * W * 8`` bytes
        (``W = max(1, ceil(n_bits / 64))``), row ``i`` occupying words
        ``[i*W, (i+1)*W)`` — the layout :attr:`words` holds and the binary
        run format (:mod:`repro.store.binfmt`) stores on disk.  The matrix
        is a **zero-copy view** of the buffer: over an ``mmap`` the file
        pages *are* the matrix (read-only; no primitive writes to the
        words), and the array's base reference keeps the mapping alive, so
        a binary-format cold open is O(1) in the pool size.
        """
        import numpy as np

        n_words = max(1, -(-n_bits // 64))
        view = memoryview(buffer)
        if view.nbytes != n_rows * n_words * 8:
            raise ValueError(
                f"buffer holds {view.nbytes} bytes; {n_rows} rows x "
                f"{n_words} words need {n_rows * n_words * 8}"
            )
        _MATRIX_BUILDS.inc()
        words = np.frombuffer(view, dtype="<u8", count=n_rows * n_words)
        return TidsetMatrix(words.reshape(n_rows, n_words), n_bits)

    @staticmethod
    def from_patterns(
        patterns: Sequence["Pattern"], n_bits: int | None = None
    ) -> "TidsetMatrix":
        """Pack the tidsets of a pattern pool (rows share the pool's order)."""
        return TidsetMatrix.from_tidsets(
            (p.tidset for p in patterns), n_bits=n_bits
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_rows} x {self.n_bits} bits)"

    @property
    def n_rows(self) -> int:
        """Number of packed tidsets."""
        return self._words.shape[0]

    @property
    def n_bits(self) -> int:
        """Width of the transaction-id universe."""
        return self._n_bits

    @property
    def words(self) -> np.ndarray:
        """The packed rows: an ``(n_rows, W)`` little-endian ``uint64`` array.

        ``W = max(1, ceil(n_bits / 64))``, the layout
        :meth:`from_words_buffer` takes.  Read it, never write to it.
        """
        return self._words

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def row(self, index: int) -> int:
        """Row ``index`` as a big-int tidset bitmask."""
        if not 0 <= index < self.n_rows:
            raise IndexError(f"row {index} out of range [0, {self.n_rows})")
        return int.from_bytes(self._words[index].tobytes(), "little")

    def rows(self) -> list[int]:
        """Every row as a big-int tidset bitmask, in row order."""
        return [self.row(i) for i in range(self.n_rows)]

    # ------------------------------------------------------------------
    # Query packing
    # ------------------------------------------------------------------

    def _pack_query(self, query: int) -> tuple[np.ndarray, int]:
        """Pack a query tidset into W words; return (words, excess-bit count).

        Bits beyond the matrix width cannot intersect any row; they only
        matter for union sizes and (non-)superset answers, so their popcount
        travels separately.
        """
        import numpy as np

        if query < 0:
            raise ValueError("tidsets are non-negative integers")
        n_words = self._words.shape[1]
        low = query & ((1 << (n_words * 64)) - 1)
        words = np.frombuffer(low.to_bytes(n_words * 8, "little"), dtype="<u8")
        return words, (query >> (n_words * 64)).bit_count()

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------

    @property
    def row_popcounts(self) -> np.ndarray:
        """``|row_i|`` for every row as an int64 array (computed once, cached).

        Read it, never write to it.
        """
        if self._pops is None:
            self._pops = word_popcounts(self._words)
        return self._pops

    def popcounts(self) -> list[int]:
        """``|row_i|`` for every row, as a list."""
        return self.row_popcounts.tolist()

    def _block_rows(self) -> int:
        """Rows per block of a ball pass: about :data:`_BLOCK_WORDS` words."""
        return max(1, _BLOCK_WORDS // self._words.shape[1])

    def _intersections(
        self, packed: Sequence[tuple[np.ndarray, int]]
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """``|row_i ∩ q|`` for each packed query, one row block at a time.

        Yields ``(start, q, counts)``: the counts of rows ``start`` to
        ``start + len(counts) - 1`` against ``packed[q]``, in the narrowest
        unsigned dtype that holds ``n_bits``, in a buffer the next yield
        overwrites.  The pass walks the matrix in blocks of
        :meth:`_block_rows` rows and answers every query over a block
        before it moves on, so each block is read from memory once per
        call and is still in cache for the next query.  Its temporaries
        are allocated once per call, one block in size, and written with
        ``out=``.  One-word rows take their counts straight from the
        popcount; wider rows sum theirs with a BLAS matvec when that is
        exact (per-word counts ≤ 64 and n_bits < 2^24, so every float32
        partial sum is an exactly-represented integer); otherwise —
        pre-2.0 NumPy, or rows too wide for float32 integer range — an
        int64 row sum of the per-word (or per-byte) counts runs instead.
        """
        import numpy as np

        n_rows, n_words = self._words.shape
        block = self._block_rows()
        size = min(block, n_rows)
        tmp = np.empty((size, n_words), dtype=np.uint64)
        out = np.empty(size, dtype=np.min_scalar_type(self._n_bits))
        native = hasattr(np, "bitwise_count")
        if native and n_words == 1:  # n_bits ≤ 64: the popcount is uint8

            def count(b: int) -> None:
                np.bitwise_count(tmp[:b, 0], out=out[:b])

        elif native and self._n_bits < (1 << 24):
            per_word = np.empty((size, n_words), dtype=np.float32)
            sums = np.empty(size, dtype=np.float32)
            ones = np.ones(n_words, dtype=np.float32)

            def count(b: int) -> None:
                np.bitwise_count(tmp[:b], out=per_word[:b])
                np.matmul(per_word[:b], ones, out=sums[:b])
                np.copyto(out[:b], sums[:b], casting="unsafe")

        else:  # per-word counts, or pre-2.0 NumPy's per-byte lookups
            lut = None if native else _popcount_lut()
            per_word = np.empty((size, n_words * (1 if native else 8)), np.uint8)
            wide = np.empty(size, dtype=np.int64)

            def count(b: int) -> None:
                if lut is None:
                    np.bitwise_count(tmp[:b], out=per_word[:b])
                else:
                    np.take(lut, tmp[:b].view(np.uint8), out=per_word[:b])
                np.sum(per_word[:b], axis=1, dtype=np.int64, out=wide[:b])
                np.copyto(out[:b], wide[:b], casting="unsafe")

        for start in range(0, n_rows, block):
            rows = self._words[start:start + block]
            b = len(rows)
            for q, (words, _) in enumerate(packed):
                np.bitwise_and(rows, words, out=tmp[:b])
                count(b)
                yield start, q, out[:b]

    def intersection_counts(self, query: int) -> np.ndarray:
        """``|row_i ∩ query|`` for every row, as an int64 array."""
        import numpy as np

        counts = np.empty(self.n_rows, dtype=np.int64)
        for start, _, block in self._intersections([self._pack_query(query)]):
            counts[start:start + len(block)] = block
        return counts

    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The rows within ``radius`` of each query tidset (inclusive).

        Returns one ``(rows, counts)`` pair per query.  ``rows`` is the
        ascending int64 array of the ``i`` with
        ``1 - |row_i ∩ q| / |row_i ∪ q| <= radius`` (Definition 6), with two
        empty sets at distance 0.0.  ``counts`` holds ``|row_i ∩ q|`` for
        those rows, from the same pass, in the narrowest unsigned dtype
        that holds ``n_bits``.  This is the r(τ) range query of Algorithm 2
        answered as pool rows; the counts are the greedy passes' first
        level.  Every query is answered in one blocked pass over the
        matrix (see :meth:`_intersections`), with block-sized temporaries.
        """
        import numpy as np

        if not queries:
            return []
        packed = [self._pack_query(query) for query in queries]
        query_pops = [
            int(word_popcounts(words[np.newaxis, :])[0]) + excess
            for words, excess in packed
        ]
        pops = self.row_popcounts
        largest = int(pops.max(initial=0)) + max(query_pops)
        need = _least_counts(largest, radius)
        # Union sizes never exceed ``largest``: uint8 on a 38-transaction
        # database.
        size = min(self._block_rows(), self.n_rows)
        unions = np.empty(size, dtype=np.min_scalar_type(largest))
        needed = np.empty(size, dtype=need.dtype)
        keep = np.empty(size, dtype=bool)
        narrow = np.min_scalar_type(self._n_bits)
        rows = [[np.empty(0, dtype=np.int64)] for _ in packed]
        counts = [[np.empty(0, dtype=narrow)] for _ in packed]
        for start, q, intersections in self._intersections(packed):
            b = len(intersections)
            # |∪| = |row| - |∩| + |q|, never below zero in between.
            np.subtract(
                pops[start:start + b], intersections, out=unions[:b],
                casting="unsafe",
            )
            np.add(unions[:b], query_pops[q], out=unions[:b])
            np.take(need, unions[:b], out=needed[:b])
            np.greater_equal(intersections, needed[:b], out=keep[:b])
            hits = np.flatnonzero(keep[:b])
            counts[q].append(intersections[hits])
            hits += start
            rows[q].append(hits)
        return [
            (np.concatenate(r), np.concatenate(c)) for r, c in zip(rows, counts)
        ]

    def distinct(self) -> tuple["TidsetMatrix", np.ndarray]:
        """The distinct rows, in order of first occurrence, and each row's id.

        Returns ``(unique, ids)``: ``unique`` holds every distinct tidset
        once, ordered by the first row that holds it, and row ``i`` equals
        row ``ids[i]`` of ``unique`` (in the narrowest unsigned dtype that
        holds every id).  A matrix whose rows are all distinct is its own
        ``unique``.

        The rows are sorted by their raw bytes (one-word rows as integers),
        which copies no row, and neighbours in that order are compared
        whole, one block of rows at a time: the answer is exact, and no
        temporary is larger than a block.
        """
        import numpy as np

        words = np.ascontiguousarray(self._words)
        n_rows, n_words = words.shape
        keys = (
            words[:, 0] if n_words == 1
            else words.view(np.dtype((np.void, 8 * n_words)))[:, 0]
        )
        perm = np.argsort(keys, kind="stable")
        fresh = np.ones(n_rows, dtype=bool)  # sorted row differs from the last
        block = self._block_rows()
        last = None
        for start in range(0, n_rows, block):
            rows = words[perm[start:start + block]]
            fresh[start + 1:start + len(rows)] = (rows[1:] != rows[:-1]).any(axis=1)
            if last is not None:
                fresh[start] = (rows[0] != last).any()
            last = rows[-1]
        first = perm[fresh]  # the stable sort puts each first row first
        narrow = np.min_scalar_type(max(len(first) - 1, 0))
        if len(first) == n_rows:
            return self, np.arange(n_rows, dtype=narrow)
        group = np.empty(n_rows, dtype=narrow)
        group[perm] = np.cumsum(fresh) - 1
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=narrow)
        rank[order] = np.arange(len(order))
        unique = words[first[order]]
        unique.flags.writeable = False
        return TidsetMatrix(unique, self._n_bits), rank[group]

    def superset_mask(self, query: int) -> int:
        """Row-position bitmask of the rows that contain ``query`` (⊇)."""
        import numpy as np

        words, excess = self._pack_query(query)
        if excess:
            return 0  # the query has ids no row's universe even covers
        selected = ((words & ~self._words) == 0).all(axis=1)
        packed = np.packbits(selected, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def closure_items(self, query: int) -> list[int]:
        """Row indices whose row is a superset of ``query``, ascending.

        Named for its main caller: with rows = a database's per-item
        tidsets, these are exactly the items of ``closure(query)``.
        """
        import numpy as np

        words, excess = self._pack_query(query)
        if excess:
            return []
        return np.flatnonzero(
            ((words & ~self._words) == 0).all(axis=1)
        ).tolist()


def _least_counts(largest: int, radius: float) -> np.ndarray:
    """``need[u]``: the least count ``i`` with ``1.0 - i / u <= radius``.

    One entry per union size ``u`` in ``0..largest``; two empty sets are at
    distance 0.0, so ``need[0]`` is 0 when ``0.0 <= radius``.  Where no
    count qualifies, ``need[u] = u + 1``, which no count reaches.  A
    closed-form guess, ``ceil(u·(1 − r))``, is corrected by the exact
    float64 test until it is the boundary: the test is monotone in ``i``,
    so the least ``i`` that passes is where ``i − 1`` fails.
    """
    import numpy as np

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
