"""``TidsetMatrix``: N tidsets packed for batched bitset kernels.

One matrix is built per pool (or per database's item tidsets) and then every
hot-loop primitive — popcounts, intersection/union sizes against a query
tidset, whole distance-matrix rows (Definition 6), superset masks (the
closure operator's test), AND/OR reductions (Lemma 1) — is answered for *all
rows at once*.  The stdlib implementation in this module keeps rows as
Python big-int bitmasks, exactly the representation the rest of the package
uses; the NumPy implementation (:mod:`repro.kernels.numpy_backend`) packs
rows into an N×W ``uint64`` word array and vectorizes the same primitives.

Both backends are **bit-identical** — every count is an exact integer and
every distance is computed as the same ``1 - |∩| / |∪|`` float division, so
callers can switch backends without results moving by an ulp.  The property
tests in ``tests/test_kernels.py`` pin this on random matrices.  Most
primitives return plain Python values (``int`` masks, ``list`` of ``int``/
``float``).  The two that feed fusion's inner loops return NumPy arrays on
both backends, because their callers compute on arrays:
:meth:`~TidsetMatrix.intersection_counts` (an int64 count per row) and
:meth:`~TidsetMatrix.rows_within` (the row indices of each ball).  They
import NumPy when called, so importing this module never loads it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any, ClassVar

from repro.db.bitset import bitset_to_ids
from repro.obs import metrics

if TYPE_CHECKING:  # avoid an import cycle at runtime
    import numpy as np

    from repro.mining.results import Pattern

__all__ = ["TidsetMatrix", "StdlibTidsetMatrix"]

# Per-backend build counter: the stdlib-vs-numpy mix of a run at a glance.
# Builds inside engine worker processes land in *their* registries and stay
# there; this series reflects driver/serial construction only.
_MATRIX_BUILDS = metrics.counter(
    "repro_kernel_matrix_builds_total",
    "TidsetMatrix constructions by backend",
    ("backend",),
)


class TidsetMatrix(ABC):
    """Immutable matrix of N tidsets over a ``n_bits``-wide transaction universe.

    Build once with :meth:`from_tidsets` / :meth:`from_patterns`; every query
    method is read-only and side-effect free.  Row order is construction
    order, and all row masks returned by the query methods (``superset_mask``
    etc.) are big-int bitmasks over *row positions*, bit ``i`` ↔ row ``i``.
    """

    backend: ClassVar[str]
    """Which implementation this matrix is (``"stdlib"`` or ``"numpy"``)."""

    @staticmethod
    def from_tidsets(
        tidsets: Iterable[int],
        n_bits: int | None = None,
        backend: str | None = None,
    ) -> "TidsetMatrix":
        """Pack an iterable of tidset bitmasks into a matrix.

        ``n_bits`` fixes the universe width (it must cover every tidset);
        by default the width of the widest tidset is used.  ``backend``
        overrides the process-wide selection of
        :func:`repro.kernels.backend` for this one matrix.
        """
        from repro.kernels.backend import backend as active_backend

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
        name = backend if backend is not None else active_backend()
        if name == "numpy":
            from repro.kernels.numpy_backend import NumpyTidsetMatrix

            _MATRIX_BUILDS.inc(backend="numpy")
            return NumpyTidsetMatrix(rows, n_bits)
        if name != "stdlib":
            raise ValueError(f"unknown kernels backend {name!r}")
        _MATRIX_BUILDS.inc(backend="stdlib")
        return StdlibTidsetMatrix(rows, n_bits)

    @staticmethod
    def from_words_buffer(
        buffer: Any,
        n_rows: int,
        n_bits: int,
        backend: str | None = None,
    ) -> "TidsetMatrix":
        """Wrap pre-packed little-endian uint64 row words without repacking.

        ``buffer`` is any bytes-like of exactly ``n_rows * W * 8`` bytes
        (``W = max(1, ceil(n_bits / 64))``), row ``i`` occupying words
        ``[i*W, (i+1)*W)`` — the layout ``NumpyTidsetMatrix`` packs and the
        binary run format (:mod:`repro.store.binfmt`) stores on disk.  Under
        the NumPy backend the matrix is a **zero-copy view** of the buffer
        (a memoryview over an ``mmap`` keeps the mapping alive); the stdlib
        backend converts rows to big ints in one ``int.from_bytes`` sweep.
        """
        from repro.kernels.backend import backend as active_backend

        n_words = max(1, -(-n_bits // 64))
        width = n_words * 8
        view = memoryview(buffer)
        if view.nbytes != n_rows * width:
            raise ValueError(
                f"buffer holds {view.nbytes} bytes; {n_rows} rows x "
                f"{n_words} words need {n_rows * width}"
            )
        name = backend if backend is not None else active_backend()
        if name == "numpy":
            from repro.kernels.numpy_backend import NumpyTidsetMatrix

            _MATRIX_BUILDS.inc(backend="numpy")
            return NumpyTidsetMatrix.from_words_buffer(view, n_rows, n_bits)
        if name != "stdlib":
            raise ValueError(f"unknown kernels backend {name!r}")
        _MATRIX_BUILDS.inc(backend="stdlib")
        rows = [
            int.from_bytes(view[i * width:(i + 1) * width], "little")
            for i in range(n_rows)
        ]
        return StdlibTidsetMatrix(rows, n_bits)

    @staticmethod
    def from_patterns(
        patterns: Sequence["Pattern"],
        n_bits: int | None = None,
        backend: str | None = None,
    ) -> "TidsetMatrix":
        """Pack the tidsets of a pattern pool (rows share the pool's order)."""
        return TidsetMatrix.from_tidsets(
            (p.tidset for p in patterns), n_bits=n_bits, backend=backend
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.n_rows} x {self.n_bits} bits, "
            f"backend={self.backend})"
        )

    @property
    @abstractmethod
    def n_rows(self) -> int:
        """Number of packed tidsets."""

    @property
    @abstractmethod
    def n_bits(self) -> int:
        """Width of the transaction-id universe."""

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
        ``n_bits`` and backend, but a gather rather than a re-pack: a
        fusion round packs its pool once and every ball takes its rows
        from that matrix.  Repeated indices repeat rows.
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
    def union_counts(self, query: int) -> list[int]:
        """``|row_i ∪ query|`` for every row."""

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

    def rows_within(
        self, queries: Sequence[int], radius: float
    ) -> list[np.ndarray]:
        """The rows within ``radius`` of each query tidset (inclusive).

        Returns one ascending int64 array per query: the ``i`` with
        ``jaccard_distance_rows([q])[0][i] <= radius``, the same float
        expression, with two empty sets at distance 0.0.  This is the r(τ)
        range query of Algorithm 2 answered as pool rows.
        """
        import numpy as np

        return [
            np.array(
                [i for i, distance in enumerate(row) if distance <= radius],
                dtype=np.int64,
            )
            for row in self.jaccard_distance_rows(queries)
        ]

    @abstractmethod
    def jaccard_distance_matrix(self, empty: float = 0.0) -> Sequence[Sequence[float]]:
        """The full N×N pairwise Definition 6 distance matrix of the rows.

        ``out[i][j] = 1 - |row_i ∩ row_j| / |row_i ∪ row_j]`` (``empty``
        when both rows are empty); symmetric with a zero diagonal.  Values
        are bit-identical across backends, but the *container* is backend
        native: nested lists from stdlib, a 2-D float64 array from NumPy —
        materialising N² Python floats would dwarf the computation itself,
        and matrix consumers (benchmarks, bulk analysis) index rather than
        iterate.  Call ``tolist()`` on the NumPy result if lists are needed.
        """

    @abstractmethod
    def superset_mask(self, query: int) -> int:
        """Row-position bitmask of the rows that contain ``query`` (⊇)."""

    @abstractmethod
    def intersects_mask(self, query: int) -> int:
        """Row-position bitmask of the rows sharing at least one id with
        ``query``."""

    def closure_items(self, query: int) -> list[int]:
        """Row indices whose row is a superset of ``query``, ascending.

        Named for its main caller: with rows = a database's per-item
        tidsets, these are exactly the items of ``closure(query)``.
        """
        return bitset_to_ids(self.superset_mask(query))

    @abstractmethod
    def intersect_reduce(
        self, rows: Sequence[int] | None = None, start: int | None = None
    ) -> int:
        """AND of the selected rows (all rows when ``rows`` is None).

        ``start`` seeds the reduction (Lemma 1 intersections start from the
        universal tidset).  Selecting no rows with no ``start`` is undefined
        and raises ``ValueError``, matching
        :func:`repro.db.bitset.intersect_all`.
        """

    @abstractmethod
    def union_reduce(
        self, rows: Sequence[int] | None = None, start: int = 0
    ) -> int:
        """OR of the selected rows (the empty union is ``start``)."""


class StdlibTidsetMatrix(TidsetMatrix):
    """Pure-stdlib backend: rows stay Python big-int bitmasks.

    This is the reference implementation — its arithmetic *is* the package's
    historical big-int code, with per-row popcounts precomputed once and a
    zero-intersection early exit in the distance rows so brute-force ball
    queries stop re-popcounting unions that arithmetic already determines.
    """

    backend = "stdlib"

    __slots__ = ("_rows", "_n_bits", "_pops")

    def __init__(self, rows: list[int], n_bits: int) -> None:
        self._rows = rows
        self._n_bits = n_bits
        self._pops: list[int] | None = None

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_bits(self) -> int:
        return self._n_bits

    def row(self, index: int) -> int:
        return self._rows[index]

    def rows(self) -> list[int]:
        return list(self._rows)

    def take(self, rows: Sequence[int]) -> "StdlibTidsetMatrix":
        taken = StdlibTidsetMatrix([self._rows[i] for i in rows], self._n_bits)
        if self._pops is not None:
            taken._pops = [self._pops[i] for i in rows]
        return taken

    def _pops_internal(self) -> list[int]:
        if self._pops is None:
            self._pops = [row.bit_count() for row in self._rows]
        return self._pops

    def popcounts(self) -> list[int]:
        return list(self._pops_internal())

    def intersection_counts(self, query: int) -> np.ndarray:
        import numpy as np

        return np.fromiter(
            ((row & query).bit_count() for row in self._rows),
            dtype=np.int64, count=len(self._rows),
        )

    def union_counts(self, query: int) -> list[int]:
        query_pop = query.bit_count()
        return [
            pop + query_pop - (row & query).bit_count()
            for row, pop in zip(self._rows, self._pops_internal())
        ]

    def jaccard_distance_rows(
        self, queries: Sequence[int], empty: float = 0.0
    ) -> list[list[float]]:
        pops = self._pops_internal()
        out: list[list[float]] = []
        for query in queries:
            query_pop = query.bit_count()
            distances: list[float] = []
            for row, pop in zip(self._rows, pops):
                intersection = (row & query).bit_count() if query_pop else 0
                if intersection == 0:
                    # |∪| = pop + query_pop here; nonzero union means the
                    # sets are disjoint (distance exactly 1.0).
                    distances.append(empty if pop + query_pop == 0 else 1.0)
                    continue
                union = pop + query_pop - intersection
                distances.append(1.0 - intersection / union)
            out.append(distances)
        return out

    def jaccard_distance_matrix(self, empty: float = 0.0) -> list[list[float]]:
        pops = self._pops_internal()
        rows = self._rows
        n = len(rows)
        out = [[0.0] * n for _ in range(n)]
        for i in range(n):
            row_i, pop_i = rows[i], pops[i]
            out_i = out[i]
            out_i[i] = empty if pop_i == 0 else 0.0
            for j in range(i + 1, n):
                pop_j = pops[j]
                inter = (row_i & rows[j]).bit_count() if pop_i and pop_j else 0
                if inter == 0:
                    d = empty if pop_i + pop_j == 0 else 1.0
                else:
                    d = 1.0 - inter / (pop_i + pop_j - inter)
                out_i[j] = d
                out[j][i] = d  # Dist is symmetric: compute each pair once
        return out

    def superset_mask(self, query: int) -> int:
        mask = 0
        for index, row in enumerate(self._rows):
            if query & ~row == 0:
                mask |= 1 << index
        return mask

    def intersects_mask(self, query: int) -> int:
        mask = 0
        for index, row in enumerate(self._rows):
            if row & query:
                mask |= 1 << index
        return mask

    def intersect_reduce(
        self, rows: Sequence[int] | None = None, start: int | None = None
    ) -> int:
        selected = self._rows if rows is None else [self._rows[i] for i in rows]
        result = start
        for row in selected:
            result = row if result is None else result & row
            if result == 0:
                return 0
        if result is None:
            raise ValueError("intersect_reduce() of no rows is undefined")
        return result

    def union_reduce(
        self, rows: Sequence[int] | None = None, start: int = 0
    ) -> int:
        selected = self._rows if rows is None else [self._rows[i] for i in rows]
        result = start
        for row in selected:
            result |= row
        return result
