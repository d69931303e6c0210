"""Composable queries over a stored (or in-memory) pattern pool.

A :class:`Query` is an immutable conjunction of operators::

    Query().superset_of([3, 7]).min_support(20).min_size(5).top(10)
    Query().contains(1, 2)                     # any-of
    Query().within([3, 7, 12], radius=0.25)    # distance ball (Definition 6)

``evaluate`` runs it against a pool: item predicates resolve through an
:class:`repro.store.index.InvertedItemIndex` (mask algebra, no per-pattern
scans), the distance ball goes through the existing
:class:`repro.core.ball_index.PatternBallIndex`, and results come back
in the canonical "most colossal first" order
(:func:`repro.mining.results.colossal_rank_key`) — identical to brute-force
predicate filtering, which the property tests assert.

Queries round-trip through plain dicts (``to_dict``/``from_dict``), the
contract behind the HTTP ``/query`` endpoint and the CLI's flags — the same
lossless-with-crisp-unknown-key-errors convention the miner configs follow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.core.ball_index import PatternBallIndex
from repro.mining.results import Pattern, colossal_rank_key
from repro.store.index import InvertedItemIndex

__all__ = ["Query", "run_query"]


@dataclass(frozen=True, slots=True)
class Query:
    """One pool query: every set operator must hold (a conjunction).

    Build with the chaining methods; the fields are the wire format.
    """

    contains_any: tuple[int, ...] = ()
    """Keep patterns sharing at least one of these items (empty = no-op)."""
    superset_of: tuple[int, ...] = ()
    """Keep patterns containing *all* of these items."""
    min_support: int = 0
    """Keep patterns with absolute support ≥ this."""
    min_size: int = 0
    """Keep patterns with at least this many items."""
    top: int | None = None
    """After filtering and ranking, keep only the first k patterns."""
    center: tuple[int, ...] | None = None
    """Itemset of the stored pattern anchoring a distance ball (see within)."""
    radius: float | None = None
    """Ball radius in pattern distance (Definition 6); requires ``center``."""

    def __post_init__(self) -> None:
        if self.min_support < 0:
            raise ValueError(f"min_support must be >= 0, got {self.min_support}")
        if self.min_size < 0:
            raise ValueError(f"min_size must be >= 0, got {self.min_size}")
        if self.top is not None and self.top < 1:
            raise ValueError(f"top must be >= 1, got {self.top}")
        if (self.center is None) != (self.radius is None):
            raise ValueError("center and radius must be given together")
        if self.radius is not None and self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    # ------------------------------------------------------------------
    # Builder surface (each returns a new Query; the instance is frozen)
    # ------------------------------------------------------------------

    def contains(self, *items: int) -> "Query":
        """Require at least one of ``items`` (repeated calls accumulate)."""
        return replace(
            self, contains_any=tuple(sorted(set(self.contains_any) | set(items)))
        )

    def superset(self, items: Iterable[int]) -> "Query":
        """Require every item of ``items`` (repeated calls accumulate)."""
        return replace(
            self, superset_of=tuple(sorted(set(self.superset_of) | set(items)))
        )

    def support_at_least(self, minsup: int) -> "Query":
        """Require absolute support ≥ ``minsup``."""
        return replace(self, min_support=max(self.min_support, minsup))

    def size_at_least(self, size: int) -> "Query":
        """Require pattern size ≥ ``size`` (the colossal slice)."""
        return replace(self, min_size=max(self.min_size, size))

    def limit(self, k: int) -> "Query":
        """Keep the ``k`` highest-ranked matches."""
        return replace(self, top=k)

    def within(self, center: Iterable[int], radius: float) -> "Query":
        """Require Dist(pattern, center) ≤ ``radius``.

        ``center`` names a pattern *stored in the queried pool* by its
        itemset (its tidset anchors the ball); evaluation raises ``KeyError``
        when no such pattern exists.
        """
        return replace(self, center=tuple(sorted(set(center))), radius=radius)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Only the non-default operators, as JSON-ready values."""
        out: dict[str, Any] = {}
        if self.contains_any:
            out["contains"] = list(self.contains_any)
        if self.superset_of:
            out["superset_of"] = list(self.superset_of)
        if self.min_support:
            out["min_support"] = self.min_support
        if self.min_size:
            out["min_size"] = self.min_size
        if self.top is not None:
            out["top"] = self.top
        if self.center is not None:
            out["center"] = list(self.center)
            out["radius"] = self.radius
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Query":
        """Inverse of :meth:`to_dict`; unknown keys raise naming valid ones."""
        valid = (
            "contains", "superset_of", "min_support", "min_size", "top",
            "center", "radius",
        )
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown query key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(valid)}"
            )
        return cls(
            contains_any=tuple(data.get("contains", ())),
            superset_of=tuple(data.get("superset_of", ())),
            min_support=data.get("min_support", 0),
            min_size=data.get("min_size", 0),
            top=data.get("top"),
            center=tuple(data["center"]) if "center" in data else None,
            radius=data.get("radius"),
        )

    def evaluate(
        self, pool: list[Pattern], index: InvertedItemIndex | None = None
    ) -> list[Pattern]:
        """Run against a pool; see :func:`run_query`."""
        return run_query(pool, self, index=index)


def run_query(
    pool: list[Pattern],
    query: Query,
    index: InvertedItemIndex | None = None,
) -> list[Pattern]:
    """Evaluate ``query`` over ``pool``: filter, rank, truncate.

    Pass a prebuilt :class:`InvertedItemIndex` over the *same pool* to reuse
    it across queries (the serving layer does); otherwise one is built when
    an item operator needs it.  Results are sorted by
    :func:`colossal_rank_key` and truncated to ``query.top``.
    """
    candidates = list(pool)
    if query.contains_any or query.superset_of:
        if index is None:
            index = InvertedItemIndex(pool)
        mask = index.universe
        if query.contains_any:
            mask &= index.containing_any(query.contains_any)
        if query.superset_of:
            mask &= index.containing_all(query.superset_of)
        candidates = index.select(mask)
    if query.min_support:
        candidates = [p for p in candidates if p.support >= query.min_support]
    if query.min_size:
        candidates = [p for p in candidates if p.size >= query.min_size]
    if query.center is not None and query.radius is not None:
        center_items = frozenset(query.center)
        anchor = next((p for p in pool if p.items == center_items), None)
        if anchor is None:
            raise KeyError(
                f"no stored pattern with items {sorted(center_items)} "
                "to anchor the distance ball"
            )
        candidates = PatternBallIndex(candidates).ball(anchor, query.radius)
    ranked = sorted(candidates, key=colossal_rank_key)
    if query.top is not None:
        ranked = ranked[: query.top]
    return ranked
