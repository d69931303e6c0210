"""Result types for sequential-pattern mining.

Mirrors :mod:`repro.mining.results` for sequences: a pattern is an ordered
tuple of item ids plus the bitset of supporting sequence ids.  Keeping the
support set on the pattern is what lets the Pattern-Fusion machinery —
distance balls, core-ratio checks — transfer to sequences unchanged, exactly
as Section 8 of the paper anticipates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.sequences.sequence_db import is_subsequence

__all__ = ["SequencePattern", "SequenceMiningResult"]


@dataclass(frozen=True, slots=True)
class SequencePattern:
    """A sequential pattern: ordered items plus its support set.

    Equality is on the sequence only; the tidset is derived data (compare
    :class:`repro.mining.results.Pattern`).
    """

    sequence: tuple[int, ...]
    tidset: int = field(compare=False)

    @property
    def support(self) -> int:
        """Number of database sequences containing this pattern."""
        return self.tidset.bit_count()

    @property
    def length(self) -> int:
        """Pattern length |s| — the quantity "colossal" refers to here."""
        return len(self.sequence)

    def is_subsequence_of(self, other: "SequencePattern") -> bool:
        """True when this pattern embeds (order-preservingly) in ``other``."""
        return is_subsequence(self.sequence, other.sequence)

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.sequence)
        return f"<{inner}>#{self.support}"


@dataclass(slots=True)
class SequenceMiningResult:
    """Outcome of a sequence miner invocation."""

    algorithm: str
    minsup: int
    patterns: list[SequencePattern]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[SequencePattern]:
        return iter(self.patterns)

    def sequences(self) -> set[tuple[int, ...]]:
        """The bare sequences, for set-level comparisons."""
        return {p.sequence for p in self.patterns}

