"""Bitset utilities for transaction-id sets.

A *tidset* — the set of transaction ids supporting a pattern — is stored as a
Python arbitrary-precision integer used as a bitmask: bit ``i`` is set when
transaction ``i`` contains the pattern.  This gives set intersection, union and
difference as single ``&``/``|``/``&~`` machine-word-parallel operations, and
cardinality as :meth:`int.bit_count`, which is exactly the profile of work
frequent-pattern miners do in their inner loops.

The module is deliberately free of classes: a bitset *is* an ``int``, so all
helpers are plain functions that can be inlined mentally (and by the reader)
wherever they are used.

For *batched* work — popcounts, intersection sizes, distance rows, or
superset tests over many tidsets at once — use :mod:`repro.kernels`: its
:class:`~repro.kernels.TidsetMatrix` packs a pool of tidsets once and
answers those primitives per call as vectorized word arithmetic,
bit-identically to looping over these functions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = [
    "bitset_from_ids",
    "bitset_to_ids",
    "iter_ids",
    "cardinality",
    "contains",
    "add",
    "remove",
    "intersect_all",
    "union_all",
    "is_subset",
    "is_superset",
    "jaccard",
    "universe",
]


def bitset_from_ids(ids: Iterable[int]) -> int:
    """Build a bitset from an iterable of non-negative transaction ids."""
    mask = 0
    for tid in ids:
        if tid < 0:
            raise ValueError(f"transaction id must be non-negative, got {tid}")
        mask |= 1 << tid
    return mask


def bitset_to_ids(mask: int) -> list[int]:
    """Return the sorted list of transaction ids present in ``mask``."""
    return list(iter_ids(mask))


def iter_ids(mask: int) -> Iterator[int]:
    """Yield the transaction ids present in ``mask`` in increasing order."""
    if mask < 0:
        raise ValueError("bitsets are non-negative integers")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cardinality(mask: int) -> int:
    """Number of transaction ids in the bitset (popcount)."""
    return mask.bit_count()


def contains(mask: int, tid: int) -> bool:
    """True when transaction ``tid`` is present in ``mask``."""
    return (mask >> tid) & 1 == 1


def add(mask: int, tid: int) -> int:
    """Return ``mask`` with transaction ``tid`` added."""
    return mask | (1 << tid)


def remove(mask: int, tid: int) -> int:
    """Return ``mask`` with transaction ``tid`` removed (no-op if absent)."""
    return mask & ~(1 << tid)


def intersect_all(masks: Iterable[int], *, start: int | None = None) -> int:
    """Intersect all bitsets in ``masks``.

    ``start`` seeds the running intersection (useful for intersecting against
    an existing tidset).  With no masks and no ``start`` the intersection is
    undefined, and a :class:`ValueError` is raised rather than silently
    returning an empty or universal set.
    """
    result = start
    for mask in masks:
        result = mask if result is None else result & mask
        if result == 0:
            return 0
    if result is None:
        raise ValueError("intersect_all() of an empty iterable is undefined")
    return result


def union_all(masks: Iterable[int], *, start: int = 0) -> int:
    """Union of all bitsets in ``masks`` (empty union is the empty set)."""
    result = start
    for mask in masks:
        result |= mask
    return result


def is_subset(inner: int, outer: int) -> bool:
    """True when every id in ``inner`` is also in ``outer``."""
    return inner & ~outer == 0


def is_superset(outer: int, inner: int) -> bool:
    """True when ``outer`` contains every id in ``inner``."""
    return inner & ~outer == 0


def jaccard(a: int, b: int, *, empty: float = 1.0) -> float:
    """Jaccard similarity |a ∩ b| / |a ∪ b| of two tidsets.

    ``empty`` is the value returned for two empty sets.  The default 1.0
    (they are identical) keeps ``1 - jaccard`` a proper distance; pattern
    distance (:func:`repro.core.distance.tidset_distance`) delegates here
    with the same convention, so the two surfaces can never drift apart.
    """
    union = a | b
    if union == 0:
        return empty
    return (a & b).bit_count() / union.bit_count()


def universe(n: int) -> int:
    """Bitset containing transaction ids ``0 .. n-1``."""
    if n < 0:
        raise ValueError(f"universe size must be non-negative, got {n}")
    return (1 << n) - 1
