"""The kinds of pattern Pattern-Fusion fuses: itemsets and sequences.

Definition 6's distance and Theorem 2's ball read support sets only, so
Algorithms 1 and 2 are the same for every kind of pattern.  A kind tells
them the rest:

* ``key(pattern)`` — the items identifying a pattern, which a pool row
  holds (ascending unless ``ordered``);
* ``build(row, tidset)`` — the pattern of a pool row;
* ``close(db, tidset)`` — the pattern a fused tidset closes to, or ``None``;
* ``mine_pool(db, minsup, max_size)`` — phase 1, as a ``Pool``;
* ``fingerprint(db)`` — the database's content hash, for checkpoints.

A database names its kind (``SequenceDatabase.pattern_kind``); one that
does not holds itemsets.  The sequence kind imports :mod:`repro.sequences`
only when used.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING, Any

from repro.db import dataset_fingerprint
from repro.mining.levelwise import mine_pool
from repro.mining.results import Pattern

if TYPE_CHECKING:
    from repro.core.pool import Pool

__all__ = ["PatternKind", "ITEMSETS", "SEQUENCES"]


class PatternKind:
    """Base of the two kinds; each is a module-level singleton."""

    name: str
    ordered: bool

    def __reduce__(self) -> str:
        return self.name  # pickles as a reference to the singleton


class _Itemsets(PatternKind):
    name = "ITEMSETS"
    ordered = False
    key = attrgetter("items")

    def build(self, row: list[int], tidset: int) -> Pattern:
        return Pattern(items=frozenset(row), tidset=tidset)

    def close(self, db: Any, tidset: int) -> Pattern:
        return Pattern(items=db.closure_of_tidset(tidset), tidset=tidset)

    mine_pool = staticmethod(mine_pool)
    fingerprint = staticmethod(dataset_fingerprint)


class _Sequences(PatternKind):
    name = "SEQUENCES"
    ordered = True
    key = attrgetter("sequence")

    def build(self, row: list[int], tidset: int) -> Any:
        from repro.sequences.results import SequencePattern

        return SequencePattern(sequence=tuple(row), tidset=tidset)

    def close(self, db: Any, tidset: int) -> Any | None:
        from repro.sequences.fusion import common_pattern_of_tidset

        sequence = common_pattern_of_tidset(db, tidset)
        return self.build(sequence, db.tidset(sequence)) if sequence else None

    def mine_pool(self, db: Any, minsup: int, max_size: int) -> "Pool":
        from repro.core.pool import Pool
        from repro.sequences.prefixspan import prefixspan

        patterns = prefixspan(db, minsup, max_length=max_size).patterns
        return Pool.from_patterns(patterns, self)

    fingerprint = methodcaller("fingerprint")


ITEMSETS: PatternKind = _Itemsets()
SEQUENCES: PatternKind = _Sequences()
