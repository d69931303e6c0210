"""Pattern distance (Definition 6) and the core-pattern ball radius (Theorem 2).

``Dist(α, β) = 1 − |D_α ∩ D_β| / |D_α ∪ D_β|`` is the Jaccard distance
between *support sets* — patterns are close when they occur in nearly the
same transactions, regardless of how their items compare.  Theorem 1 (via
[21]) makes (S, Dist) a metric space; Theorem 2 bounds the diameter of the
set of τ-core patterns of any pattern by ``r(τ) = 1 − 1/(2/τ − 1)``, which is
what lets Pattern-Fusion recover a seed's fellow core patterns with a range
query.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.db.bitset import jaccard
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "pattern_distance", "tidset_distance", "ball_radius", "ball", "balls", "Ball"
]


def tidset_distance(tidset_a: int, tidset_b: int) -> float:
    """Jaccard distance between two support sets given as bitmasks.

    Two empty support sets are at distance 0 (both patterns occur nowhere;
    they are indistinguishable by occurrences) — the complement of
    :func:`repro.db.bitset.jaccard`'s empty-similarity-1.0 convention, to
    which this delegates.
    """
    return 1.0 - jaccard(tidset_a, tidset_b)


def pattern_distance(alpha: Pattern, beta: Pattern) -> float:
    """Definition 6: Dist(α, β) on two mined patterns."""
    return tidset_distance(alpha.tidset, beta.tidset)


def ball_radius(tau: float) -> float:
    """Theorem 2's bound r(τ) = 1 − 1/(2/τ − 1).

    Any two τ-core patterns of the same pattern are within r(τ) of each
    other.  r is decreasing in τ: a stricter core ratio keeps core patterns
    in a tighter ball (τ = 1 forces identical support sets, r = 0).
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return 1.0 - 1.0 / (2.0 / tau - 1.0)


def ball(
    center: Pattern,
    pool: list[Pattern],
    radius: float,
) -> list[Pattern]:
    """All patterns in ``pool`` within ``radius`` of ``center`` (inclusive).

    This is the range query of Algorithm 2 lines 5–7 that builds
    ``center.CoreList``.  The center itself is included when present in the
    pool, matching the fusion step which always fuses {α} ∪ CoreList.
    """
    return [p for p in pool if tidset_distance(center.tidset, p.tidset) <= radius]


class Ball(Sequence[Pattern]):
    """One seed's CoreList as rows of its pool: a read-only pattern view.

    ``rows`` holds the members' positions in ``pool`` (an int64 array,
    ascending as the ball queries return it).  Length, iteration, indexing and slicing behave as for the
    list ``[pool[i] for i in rows]``, and a ball compares equal to that
    list.  A fusion round ships ``rows`` to its workers and gathers the
    members' tidsets from the pool matrix by row; patterns are looked up
    only when something reads them.
    """

    __slots__ = ("pool", "rows")

    def __init__(self, pool: Sequence[Pattern], rows: np.ndarray) -> None:
        self.pool = pool
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int | slice) -> "Pattern | Ball":
        if isinstance(index, slice):
            return Ball(self.pool, self.rows[index])
        return self.pool[self.rows[index]]

    def __iter__(self) -> Iterator[Pattern]:
        pool = self.pool
        return (pool[row] for row in self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Ball, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Ball({list(self)!r})"


def balls(
    centers: Sequence[Pattern],
    pool: Sequence[Pattern],
    radius: float,
    matrix: TidsetMatrix | None = None,
) -> list[Ball]:
    """One ball per center, each exactly equal to :func:`ball` for that center.

    The batched form of the range query: the pool's tidsets are packed into
    one :class:`repro.kernels.TidsetMatrix` and every center's members come
    from one :meth:`~repro.kernels.TidsetMatrix.rows_within` call, which
    shares the centers' popcounts and (NumPy backend) scans whole distance
    rows as vectors.  Answers are bit-identical to per-pattern :func:`ball`
    scans; members are in pool order.  ``matrix`` is the pool already
    packed, when the caller holds it.
    """
    if not centers:
        return []
    if matrix is None:
        matrix = TidsetMatrix.from_patterns(pool)
    return [
        Ball(pool, rows)
        for rows in matrix.rows_within([c.tidset for c in centers], radius)
    ]
