"""Composable queries over a stored (or in-memory) pattern pool.

A :class:`Query` is an immutable conjunction of operators::

    Query().superset([3, 7]).support_at_least(20).size_at_least(5).limit(10)
    Query().contains(1, 2)                     # any-of
    Query().within([3, 7, 12], radius=0.25)    # distance ball (Definition 6)

``evaluate`` runs it against a pool: item predicates resolve through an
:class:`repro.store.index.InvertedItemIndex` (mask algebra, no per-pattern
scans), the distance ball is one
:meth:`~repro.kernels.TidsetMatrix.rows_within` pass over the pool's tidset
matrix — a stored run's mapped matrix when the caller passes one, as the
server does, and otherwise a pack of the candidates the other filters
keep.  Results come back in the canonical "most colossal first" order
(:func:`repro.mining.results.colossal_rank_key`) — identical to
brute-force predicate filtering, which the property tests assert.

Queries round-trip through plain dicts (``to_dict``/``from_dict``), the
contract behind the HTTP ``/query`` endpoint and the CLI's flags — the same
lossless-with-crisp-unknown-key-errors convention the miner configs follow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.kernels.matrix import TidsetMatrix
from repro.mining.results import Pattern, colossal_rank_key
from repro.store.index import InvertedItemIndex

if TYPE_CHECKING:
    import numpy as np

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
    matrix: TidsetMatrix | None = None,
) -> list[Pattern]:
    """Evaluate ``query`` over ``pool``: filter, rank, truncate.

    Pass a prebuilt :class:`InvertedItemIndex` over the *same pool* to reuse
    it across queries (the serving layer does); otherwise one is built when
    an item operator needs it.  ``matrix`` — the pool's tidsets packed in
    pool order, such as a stored run's mapped
    :meth:`~repro.store.PatternStore.open_matrix` matrix — is scanned whole
    by a distance ball and the item filters narrow its hits; without one,
    the ball packs only the candidates the other filters keep.  The ball's
    anchor comes from the index when there is one (the rows that hold every
    center item and no other) and from a scan of the pool otherwise.
    Results are sorted by :func:`colossal_rank_key` and truncated to
    ``query.top``.
    """
    mask = None  # the pool positions the item filters keep
    if query.contains_any or query.superset_of:
        if index is None:
            index = InvertedItemIndex(pool)
        mask = index.universe
        if query.contains_any:
            mask &= index.containing_any(query.contains_any)
        if query.superset_of:
            mask &= index.containing_all(query.superset_of)
    anchor = None
    if query.center is not None and query.radius is not None:
        center_items = frozenset(query.center)
        if index is None:
            anchor = next((p for p in pool if p.items == center_items), None)
        else:
            # A superset of the center with its size is the center itself;
            # the lowest such position is the first in pool order.
            found = index.containing_all(center_items) & index.of_size(
                len(center_items)
            )
            anchor = pool[(found & -found).bit_length() - 1] if found else None
        if anchor is None:
            raise KeyError(
                f"no stored pattern with items {sorted(center_items)} "
                "to anchor the distance ball"
            )
    if anchor is not None and matrix is not None:
        if len(matrix) != len(pool):
            raise ValueError(
                f"matrix holds {len(matrix)} rows for a pool of {len(pool)}"
            )
        (rows, _), = matrix.rows_within([anchor.tidset], query.radius)
        if mask is not None:
            rows = rows[_position_array(mask, len(pool))[rows]]
        candidates = [pool[i] for i in rows.tolist()]
    elif mask is not None:
        candidates = index.select(mask)
    else:
        candidates = list(pool)
    if query.min_support:
        candidates = [p for p in candidates if p.support >= query.min_support]
    if query.min_size:
        candidates = [p for p in candidates if p.size >= query.min_size]
    if anchor is not None and matrix is None:
        (rows, _), = TidsetMatrix.from_patterns(candidates).rows_within(
            [anchor.tidset], query.radius
        )
        candidates = [candidates[i] for i in rows.tolist()]
    ranked = sorted(candidates, key=colossal_rank_key)
    if query.top is not None:
        ranked = ranked[: query.top]
    return ranked


def _position_array(mask: int, n: int) -> np.ndarray:
    """A bitmask over ``n`` pool positions as a bool array, bit ``i`` ↔ ``[i]``."""
    import numpy as np

    raw = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)
