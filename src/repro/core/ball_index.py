"""A pool packed once for the r(τ) ball queries of Algorithm 2.

Theorem 2 collects each seed's CoreList as the pool patterns within
``r(τ)`` of it in pattern-distance space.  :class:`PatternBallIndex` queries
the distinct-tidset matrix of a :class:`~repro.core.pool.Pool` (packing a
list of patterns into one when it is given a list); each query is then one
vectorized :meth:`~repro.kernels.TidsetMatrix.rows_within` pass per center
over the distinct tidsets, answered as pool rows
(:class:`~repro.core.distance.Ball`).  Each chunk of a fusion round queries
its seeds through one index over the round's pool, and its greedy passes
gather their balls' tidsets from the same matrix.

Answers equal the paper's brute-force scan
(:func:`repro.core.distance.ball`); the tests assert it on random pools.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.distance import Ball, balls
from repro.core.pool import Pool
from repro.mining.results import Pattern

__all__ = ["PatternBallIndex"]


class PatternBallIndex:
    """An immutable pool with its tidsets packed once for ball queries."""

    def __init__(self, pool: Iterable[Pattern]) -> None:
        self._pool = Pool.from_patterns(pool)

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def pool(self) -> Pool:
        """The indexed pool, row ``i`` ↔ ``pool[i]``."""
        return self._pool

    def ball(self, center: Pattern, radius: float) -> Ball:
        """All pool patterns within ``radius`` of ``center`` (inclusive),
        exactly the brute-force ball of :func:`repro.core.distance.ball`."""
        return self.balls([center], radius)[0]

    def balls(self, centers: Sequence[Pattern], radius: float) -> list[Ball]:
        """One ball per center, members in pool order: the bulk form of
        :meth:`ball`, one vectorized row scan per center."""
        return balls(centers, self._pool, radius)
