"""``TidsetMatrix``: N tidsets packed for batched bitset kernels.

One matrix is built per pool (or per database's item tidsets) and then every
hot-loop primitive — popcounts, intersection sizes against a query tidset,
whole distance-matrix rows (Definition 6), the rows within a ball radius
(Theorem 2), superset masks (the closure operator's test) — is answered for
*all rows at once*.  This module is the NumPy-free front: the factories and
the interface.  The one implementation, :mod:`repro.kernels.numpy_backend`,
packs rows into an N×W ``uint64`` word array and is imported when the first
matrix is built, so importing this module never loads NumPy.

Every count is an exact integer and every distance is the same
``1 - |∩| / |∪|`` float64 division that
:func:`repro.core.distance.tidset_distance` performs on big ints, so the
kernels agree with the naive big-int formulation bit for bit; the property
tests in ``tests/test_kernels.py`` pin this on random matrices.  Most
primitives return plain Python values (``int`` masks, ``list`` of ``int``/
``float``).  The two that feed fusion's inner loops return NumPy arrays,
because their callers compute on arrays:
:meth:`~TidsetMatrix.intersection_counts` (an int64 count per row) and
:meth:`~TidsetMatrix.rows_within` (the row indices of each ball).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.db.bitset import bitset_to_ids
from repro.obs import metrics

if TYPE_CHECKING:  # avoid an import cycle at runtime
    import numpy as np

    from repro.mining.results import Pattern

__all__ = ["TidsetMatrix"]

# Builds inside engine worker processes land in *their* registries and stay
# there; this series reflects driver/serial construction only.
_MATRIX_BUILDS = metrics.counter(
    "repro_kernel_matrix_builds_total", "TidsetMatrix constructions"
)


class TidsetMatrix(ABC):
    """Immutable matrix of N tidsets over a ``n_bits``-wide transaction universe.

    Build once with :meth:`from_tidsets` / :meth:`from_patterns`; every query
    method is read-only and side-effect free.  Row order is construction
    order, and the row masks returned by :meth:`superset_mask` are big-int
    bitmasks over *row positions*, bit ``i`` ↔ row ``i``.
    """

    @staticmethod
    def from_tidsets(
        tidsets: Iterable[int], n_bits: int | None = None
    ) -> "TidsetMatrix":
        """Pack an iterable of tidset bitmasks into a matrix.

        ``n_bits`` fixes the universe width (it must cover every tidset);
        by default the width of the widest tidset is used.
        """
        from repro.kernels.numpy_backend import NumpyTidsetMatrix

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
        _MATRIX_BUILDS.inc()
        return NumpyTidsetMatrix(rows, n_bits)

    @staticmethod
    def from_words_buffer(buffer: Any, n_rows: int, n_bits: int) -> "TidsetMatrix":
        """Wrap pre-packed little-endian uint64 row words without repacking.

        ``buffer`` is any bytes-like of exactly ``n_rows * W * 8`` bytes
        (``W = max(1, ceil(n_bits / 64))``), row ``i`` occupying words
        ``[i*W, (i+1)*W)`` — the layout ``NumpyTidsetMatrix`` packs and the
        binary run format (:mod:`repro.store.binfmt`) stores on disk.  The
        matrix is a **zero-copy view** of the buffer (a memoryview over an
        ``mmap`` keeps the mapping alive).
        """
        from repro.kernels.numpy_backend import NumpyTidsetMatrix

        n_words = max(1, -(-n_bits // 64))
        view = memoryview(buffer)
        if view.nbytes != n_rows * n_words * 8:
            raise ValueError(
                f"buffer holds {view.nbytes} bytes; {n_rows} rows x "
                f"{n_words} words need {n_rows * n_words * 8}"
            )
        _MATRIX_BUILDS.inc()
        return NumpyTidsetMatrix.from_words_buffer(view, n_rows, n_bits)

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
    @abstractmethod
    def n_rows(self) -> int:
        """Number of packed tidsets."""

    @property
    @abstractmethod
    def n_bits(self) -> int:
        """Width of the transaction-id universe."""

    @property
    @abstractmethod
    def words(self) -> np.ndarray:
        """The packed rows: an ``(n_rows, W)`` little-endian ``uint64`` array.

        ``W = max(1, ceil(n_bits / 64))``, the layout
        :meth:`from_words_buffer` takes.  Read it, never write to it.
        """

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    @abstractmethod
    def row(self, index: int) -> int:
        """Row ``index`` as a big-int tidset bitmask."""

    def rows(self) -> list[int]:
        """Every row as a big-int tidset bitmask, in row order."""
        return [self.row(i) for i in range(self.n_rows)]

    @abstractmethod
    def take(self, rows: Sequence[int]) -> "TidsetMatrix":
        """A new matrix of the selected rows, in the given order.

        Equal to :meth:`from_tidsets` of the same rows at the same
        ``n_bits``, but a gather rather than a re-pack: a fusion round
        packs its pool once and every ball takes its rows from that
        matrix.  Repeated indices repeat rows.
        """

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def popcounts(self) -> list[int]:
        """``|row_i|`` for every row (computed once, cached)."""

    @abstractmethod
    def intersection_counts(self, query: int) -> np.ndarray:
        """``|row_i ∩ query|`` for every row, as an int64 array."""

    @abstractmethod
    def jaccard_distance_rows(
        self, queries: Sequence[int], empty: float = 0.0
    ) -> list[list[float]]:
        """Definition 6 distance of every row to every query tidset.

        Returns one list per query: ``out[q][i] = 1 - |row_i ∩ q| /
        |row_i ∪ q|``, with ``empty`` returned when both sets are empty
        (the package's tidset-distance convention is 0.0: two patterns
        occurring nowhere are indistinguishable).
        """

    @abstractmethod
    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[np.ndarray]:
        """The rows within ``radius`` of each query tidset (inclusive).

        Returns one ascending int64 array per query: the ``i`` with
        ``jaccard_distance_rows([q])[0][i] <= radius``, the same float
        expression, with two empty sets at distance 0.0.  This is the r(τ)
        range query of Algorithm 2 answered as pool rows.
        """

    @abstractmethod
    def jaccard_distance_matrix(self, empty: float = 0.0) -> np.ndarray:
        """The full N×N pairwise Definition 6 distance matrix of the rows.

        ``out[i][j] = 1 - |row_i ∩ row_j| / |row_i ∪ row_j|`` (``empty``
        when both rows are empty); symmetric with a zero diagonal.  A 2-D
        float64 array: materialising N² Python floats would dwarf the
        computation itself, and matrix consumers (benchmarks, bulk
        analysis) index rather than iterate.  Call ``tolist()`` if lists
        are needed.
        """

    @abstractmethod
    def superset_mask(self, query: int) -> int:
        """Row-position bitmask of the rows that contain ``query`` (⊇)."""

    def closure_items(self, query: int) -> list[int]:
        """Row indices whose row is a superset of ``query``, ascending.

        Named for its main caller: with rows = a database's per-item
        tidsets, these are exactly the items of ``closure(query)``.
        """
        return bitset_to_ids(self.superset_mask(query))
