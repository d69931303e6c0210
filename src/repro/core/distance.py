"""Pattern distance (Definition 6) and the core-pattern ball radius (Theorem 2).

``Dist(α, β) = 1 − |D_α ∩ D_β| / |D_α ∪ D_β|`` is the Jaccard distance
between *support sets* — patterns are close when they occur in nearly the
same transactions, regardless of how their items compare.  Theorem 1 (via
[21]) makes (S, Dist) a metric space; Theorem 2 bounds the diameter of the
set of τ-core patterns of any pattern by ``r(τ) = 1 − 1/(2/τ − 1)``, which is
what lets Pattern-Fusion recover a seed's fellow core patterns with a range
query.

Since the distance reads support sets only, a pool's range queries are
asked of its distinct tidsets (:attr:`repro.core.pool.Pool.distinct`):
one scan costs distinct tidsets × words, and each hit answers every
pattern that shares its tidset.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.pool import Pool
from repro.db.bitset import jaccard
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
    ascending as the ball queries return it).  ``counts``, when the ball
    comes from a ball query, holds ``|D_center ∩ D_m|`` for each member in
    step with ``rows`` (a narrow unsigned array, see
    :meth:`~repro.kernels.TidsetMatrix.rows_within`); it is ``None`` for a
    ball built from rows alone.  Length, iteration, indexing and slicing
    behave as for the list ``[pool[i] for i in rows]``, and a ball compares
    equal to that list.  A fusion round's greedy passes gather the
    members' distinct tidsets from the pool's distinct-tidset matrix, by
    the ids of ``rows`` in it, and take ``counts`` as the seed's level;
    patterns are looked up, or built from the pool's arrays, only when
    something reads them.  A pattern list given as
    ``pool`` is packed into a :class:`~repro.core.pool.Pool`.
    """

    __slots__ = ("pool", "rows", "counts")

    def __init__(
        self,
        pool: Sequence[Pattern],
        rows: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        self.pool = Pool.from_patterns(pool)
        self.rows = rows
        self.counts = counts

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int | slice) -> "Pattern | Ball":
        if isinstance(index, slice):
            counts = None if self.counts is None else self.counts[index]
            return Ball(self.pool, self.rows[index], counts)
        return self.pool[self.rows[index]]

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.pool.patterns_at(self.rows))

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
) -> list[Ball]:
    """One ball per center, each exactly equal to :func:`ball` for that center.

    The batched form of the range query.  Distance depends on support sets
    alone, so it is asked of each distinct tidset once: one
    :meth:`~repro.kernels.TidsetMatrix.rows_within` call scans the pool's
    distinct-tidset matrix (:attr:`~repro.core.pool.Pool.distinct`) for
    every center, sharing its popcounts and scanning whole distance rows as
    vectors; each hit then stands for every pool row that holds its
    tidset, with its count.  A pattern list is packed into a
    :class:`~repro.core.pool.Pool` first; a pool is scanned as it is.
    Answers are bit-identical to per-pattern :func:`ball` scans; members
    are in pool order, each ball carrying its members' intersection counts
    with its center.
    """
    if not centers:
        return []
    pool = Pool.from_patterns(pool)
    distinct, ids = pool.distinct, pool.tidset_ids
    answers = distinct.rows_within([c.tidset for c in centers], radius)
    if len(distinct) == len(pool):  # every row its own tidset: ids are rows
        return [Ball(pool, rows, counts) for rows, counts in answers]
    import numpy as np

    # The pool rows of each distinct tidset, ascending, one after another.
    grouped = np.argsort(ids, kind="stable")
    sizes = np.bincount(ids, minlength=len(distinct))
    starts = np.cumsum(sizes) - sizes
    count_of = np.zeros(len(distinct), dtype=answers[0][1].dtype)
    result = []
    for hits, counts in answers:
        lengths = sizes[hits]
        ends = np.cumsum(lengths)
        at = np.arange(int(ends[-1]) if len(ends) else 0)
        at += np.repeat(starts[hits] - (ends - lengths), lengths)
        # Each hit's rows are one ascending run: the stable sort merges them.
        rows = np.sort(grouped[at], kind="stable")
        count_of[hits] = counts
        result.append(Ball(pool, rows, count_of[ids[rows]]))
    return result
