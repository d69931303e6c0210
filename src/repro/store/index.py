"""Inverted item → pattern index over one pattern pool.

The query layer's workhorse: for each item, the bitmask of *pool positions*
whose pattern contains it — the same bitset trick the database layer plays
with tidsets (:mod:`repro.db.bitset`), applied one level up.  Item
predicates then reduce to mask algebra: "contains all of Q" is an AND over
Q's masks, "contains any of Q" an OR — no per-pattern set operations until
the surviving candidates are materialised.  A query touches only a few
masks, so the reductions run on the big ints directly
(:func:`~repro.db.bitset.intersect_all` / :func:`~repro.db.bitset.union_all`),
which beats packing them into word arrays.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.db.bitset import bitset_to_ids, intersect_all, union_all
from repro.mining.results import Pattern

__all__ = ["InvertedItemIndex"]


class InvertedItemIndex:
    """Immutable item → pattern-position bitmask index over a pool."""

    def __init__(self, pool: list[Pattern]) -> None:
        self._pool = list(pool)
        self._universe = (1 << len(self._pool)) - 1
        masks: dict[int, int] = {}
        for position, pattern in enumerate(self._pool):
            bit = 1 << position
            for item in pattern.items:
                masks[item] = masks.get(item, 0) | bit
        self._masks = masks

    def __len__(self) -> int:
        return len(self._pool)

    @property
    def pool(self) -> list[Pattern]:
        """The indexed pool (positions match mask bits)."""
        return self._pool

    @property
    def universe(self) -> int:
        """Bitmask selecting every pool position."""
        return self._universe

    def item_mask(self, item: int) -> int:
        """Positions of the patterns containing ``item`` (0 when absent)."""
        return self._masks.get(item, 0)

    def items(self) -> list[int]:
        """Every item that occurs in some pool pattern, ascending."""
        return sorted(self._masks)

    def containing_all(self, items: Iterable[int]) -> int:
        """Positions whose pattern is a superset of ``items``."""
        return intersect_all(map(self.item_mask, items), start=self._universe)

    def containing_any(self, items: Iterable[int]) -> int:
        """Positions whose pattern intersects ``items``."""
        return union_all(map(self.item_mask, items))

    def select(self, mask: int) -> list[Pattern]:
        """Materialise a position mask as patterns, in pool order."""
        return [self._pool[position] for position in bitset_to_ids(mask)]
