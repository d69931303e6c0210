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

from repro.db.bitset import jaccard
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern

__all__ = ["pattern_distance", "tidset_distance", "ball_radius", "ball", "balls"]


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


def balls(
    centers: list[Pattern],
    pool: list[Pattern],
    radius: float,
    matrix: TidsetMatrix | None = None,
) -> list[list[Pattern]]:
    """One ball per center, each exactly equal to :func:`ball` for that center.

    The batched form of the range query: the pool's tidsets are packed into
    one :class:`repro.kernels.TidsetMatrix` and every center's distance row
    is computed in a single batched kernel call — per-center popcounts are
    shared and zero-intersection rows exit without a union popcount (and the
    NumPy backend vectorizes whole rows).  Answers are bit-identical to
    per-pattern :func:`ball` scans; members are returned in pool order.
    ``matrix`` is the pool already packed, when the caller holds it.
    """
    if not centers or not pool:
        return [[] for _ in centers]
    if matrix is None:
        matrix = TidsetMatrix.from_patterns(pool)
    rows = matrix.jaccard_distance_rows([c.tidset for c in centers])
    return [
        [pattern for pattern, distance in zip(pool, row) if distance <= radius]
        for row in rows
    ]
