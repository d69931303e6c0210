"""Sequence database: ordered transactions for the sequential extension.

A sequence is a tuple of item ids in which items may repeat; a pattern
occurs in a sequence when it embeds order-preservingly (the standard
subsequence semantics of GSP/PrefixSpan).  Support sets are bitsets over
sequence ids, so all of Pattern-Fusion's tidset machinery applies verbatim.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

from repro.core.kinds import SEQUENCES
from repro.db import bitset
from repro.db.transaction_db import absolute_minsup

__all__ = ["SequenceDatabase", "is_subsequence"]


def is_subsequence(needle: Sequence[int], haystack: Sequence[int]) -> bool:
    """Order-preserving embedding test (items need not be contiguous)."""
    it = iter(haystack)
    return all(item in it for item in needle)


class SequenceDatabase:
    """Immutable database of item-id sequences.

    Parameters
    ----------
    sequences:
        Iterable of item-id sequences.  Order within a sequence is
        meaningful and repeats are allowed.
    n_items:
        Item-universe size; inferred from the data when omitted.
    """

    pattern_kind = SEQUENCES
    """Pattern-Fusion fuses sequences here (:mod:`repro.core.kinds`)."""

    def __init__(
        self,
        sequences: Iterable[Sequence[int]],
        n_items: int | None = None,
    ) -> None:
        rows: list[tuple[int, ...]] = [tuple(s) for s in sequences]
        max_item = -1
        for row in rows:
            for item in row:
                if item < 0:
                    raise ValueError(f"item ids must be non-negative, got {item}")
                if item > max_item:
                    max_item = item
        inferred = max_item + 1
        if n_items is None:
            n_items = inferred
        elif n_items < inferred:
            raise ValueError(
                f"n_items={n_items} but a sequence mentions item {max_item}"
            )
        self._sequences = tuple(rows)
        self._n_items = n_items
        self._universe = bitset.universe(len(rows))
        # Vertical view: per item, the sequences that mention it at all —
        # a superset filter that short-circuits most embedding tests.
        masks = [0] * n_items
        for sid, row in enumerate(rows):
            bit = 1 << sid
            for item in set(row):
                masks[item] |= bit
        self._item_masks = tuple(masks)

    def __len__(self) -> int:
        return len(self._sequences)

    def __repr__(self) -> str:
        return f"SequenceDatabase({len(self)} sequences, {self._n_items} items)"

    @property
    def n_sequences(self) -> int:
        return len(self._sequences)

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def sequences(self) -> tuple[tuple[int, ...], ...]:
        return self._sequences

    @property
    def universe(self) -> int:
        """Bitset of all sequence ids."""
        return self._universe

    def sequence(self, sid: int) -> tuple[int, ...]:
        return self._sequences[sid]

    def tidset(self, pattern: Sequence[int]) -> int:
        """Support set of a sequential pattern, as a bitset.

        The anti-monotone analogue of Lemma 1 holds: extending a pattern can
        only shrink this set (property-tested).
        """
        pattern = tuple(pattern)
        if not pattern:
            return self._universe
        candidates = self._universe
        for item in pattern:
            candidates &= self._item_masks[item]
            if candidates == 0:
                return 0
        result = 0
        for sid in bitset.iter_ids(candidates):
            if is_subsequence(pattern, self._sequences[sid]):
                result |= 1 << sid
        return result

    def support(self, pattern: Sequence[int]) -> int:
        """Absolute support of a sequential pattern."""
        return self.tidset(pattern).bit_count()

    def absolute_minsup(self, sigma: float | int) -> int:
        """Same threshold convention as the itemset database."""
        return absolute_minsup(sigma, len(self._sequences))

    def fingerprint(self) -> str:
        """SHA-256 of the universe size and the sequences in database order,
        for checkpoint identities: tidsets name sequences by position, so
        reordering the sequences, or the items within one, changes it."""
        content = repr((self._n_items, self._sequences)).encode()
        return hashlib.sha256(content).hexdigest()

    def frequent_items(self, minsup: int) -> list[int]:
        """Items mentioned by at least ``minsup`` sequences."""
        if minsup < 1:
            raise ValueError(f"minsup must be >= 1, got {minsup}")
        return [
            item
            for item, mask in enumerate(self._item_masks)
            if mask.bit_count() >= minsup
        ]
