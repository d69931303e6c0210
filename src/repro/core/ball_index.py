"""Pivot-based metric index for the r(τ) ball queries of Algorithm 2.

Theorem 1 establishes that pattern distance is a metric, so the triangle
inequality gives the classic pivot bound: for any pivot v,
``Dist(c, p) ≥ |Dist(c, v) − Dist(p, v)|``.  Precomputing each pool
pattern's distances to a handful of pivots lets a ball query discard most of
the pool with float comparisons instead of big-integer tidset operations —
the dominant cost on datasets with thousands of transactions (Replace-sim's
tidsets are 4,395 bits wide).

The index is built on the tidset kernel layer (:mod:`repro.kernels`): the
pool's tidsets are packed once into a :class:`~repro.kernels.TidsetMatrix`,
and queries pick the cheaper of two bit-identical strategies.  Under the
vectorized NumPy backend one :meth:`~repro.kernels.TidsetMatrix.rows_within`
pass per center beats per-pattern pivot checks; under the stdlib backend
the pivot exclusion runs, with exact distances computed from precomputed
popcounts.  Either way a query answers with pool rows
(:class:`~repro.core.distance.Ball`).  The pivots are drawn when the index
is built, but their distance tables are computed on first read, by the
stdlib branch or :meth:`PatternBallIndex.exclusion_rate`; under NumPy a
fusion round never builds them.

This is a performance substrate beyond the paper (which scans the pool);
correctness is pinned by tests asserting index queries equal brute-force
scans, and the A6 ablation bench measures the speedup.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cached_property

from repro.core.distance import Ball, balls, tidset_distance
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern

__all__ = ["PatternBallIndex"]


class PatternBallIndex:
    """An immutable pivot table over one pattern pool.

    Build cost: packing the pool, plus ``n_pivots`` batched distance rows
    the first time the pivot tables are read.  Each query then computes
    exact distances only for patterns no pivot can exclude (stdlib backend)
    or one vectorized distance row per center (NumPy backend).  With
    ``n_pivots = 0`` the index degenerates to a brute scan.
    """

    def __init__(
        self,
        pool: list[Pattern],
        n_pivots: int = 8,
        rng: random.Random | None = None,
    ) -> None:
        if n_pivots < 0:
            raise ValueError(f"n_pivots must be non-negative, got {n_pivots}")
        rng = rng or random.Random(0)
        self._pool = list(pool)
        self._matrix = TidsetMatrix.from_patterns(self._pool)
        n_pivots = min(n_pivots, len(self._pool))
        pivot_indices = (
            rng.sample(range(len(self._pool)), n_pivots) if n_pivots else []
        )
        self._pivots = [self._pool[i] for i in pivot_indices]

    @cached_property
    def _tables(self) -> list[list[float]]:
        """``_tables[j][i] = Dist(pool[i], pivot[j])``: one batched kernel
        call, made on first read."""
        return self._matrix.jaccard_distance_rows(
            [pivot.tidset for pivot in self._pivots]
        )

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def pool(self) -> list[Pattern]:
        """The indexed pool (shared order with the pivot tables)."""
        return self._pool

    @property
    def matrix(self) -> TidsetMatrix:
        """The pool's tidsets packed once, row ``i`` ↔ ``pool[i]``."""
        return self._matrix

    def ball(self, center: Pattern, radius: float) -> Ball:
        """All pool patterns within ``radius`` of ``center`` (inclusive).

        Exactly equal to the brute-force ball of
        :func:`repro.core.distance.ball` — the pivots only skip work, never
        answers (the tests assert this on random pools).
        """
        return self.balls([center], radius)[0]

    def balls(self, centers: Sequence[Pattern], radius: float) -> list[Ball]:
        """One ball per center from batched passes over the pool.

        The bulk form of :meth:`ball`: collecting the K seed CoreLists of
        one fusion round costs K vectorized row scans (NumPy backend) or
        one pivot-pruned pool traversal (stdlib backend) instead of K
        scalar scans.  Answers are identical to per-center queries
        (members in pool order).
        """
        if self._matrix.backend != "stdlib":
            # Vectorized distance rows answer every center outright; pivot
            # pruning would only save work the kernel no longer does
            # per-pattern.
            return balls(centers, self._pool, radius, matrix=self._matrix)
        import numpy as np

        center_to_pivots = [
            [tidset_distance(center.tidset, pivot.tidset) for pivot in self._pivots]
            for center in centers
        ]
        pops = self._matrix.popcounts()
        rows = self._matrix.rows()
        members: list[list[int]] = [[] for _ in centers]
        center_pops = [center.support for center in centers]
        for index in range(len(self._pool)):
            for position, center in enumerate(centers):
                excluded = False
                for table, center_distance in zip(
                    self._tables, center_to_pivots[position]
                ):
                    if abs(center_distance - table[index]) > radius:
                        excluded = True
                        break
                if excluded:
                    continue
                # Exact distance from precomputed popcounts: |∪| is
                # arithmetic (pa + pb − |∩|), not a second popcount.
                intersection = (center.tidset & rows[index]).bit_count()
                union = center_pops[position] + pops[index] - intersection
                distance = 0.0 if union == 0 else 1.0 - intersection / union
                if distance <= radius:
                    members[position].append(index)
        return [Ball(self._pool, np.array(m, dtype=np.int64)) for m in members]

    def exclusion_rate(self, center: Pattern, radius: float) -> float:
        """Fraction of the pool the pivots exclude for this query (telemetry)."""
        if not self._pool:
            return 0.0
        center_to_pivots = [
            tidset_distance(center.tidset, pivot.tidset) for pivot in self._pivots
        ]
        excluded = 0
        for index in range(len(self._pool)):
            for table, center_distance in zip(self._tables, center_to_pivots):
                if abs(center_distance - table[index]) > radius:
                    excluded += 1
                    break
        return excluded / len(self._pool)
