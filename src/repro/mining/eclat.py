"""Eclat: depth-first frequent-itemset mining over the vertical layout.

Zaki's equivalence-class traversal: extend a prefix itemset with each item
from its candidate tail, intersecting tidsets as we descend.  With tidsets as
int bitmasks the inner loop is a single ``&`` plus a popcount, which makes
this the fastest complete miner in the package and the reference that the
NumPy phase-1 miner (:func:`repro.mining.levelwise.mine_pool`) must match
pattern for pattern and in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.base import Capabilities, Miner, MinerConfig
from repro.api.registry import register
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult, Pattern, Stopwatch

__all__ = ["eclat", "EclatConfig", "EclatMiner"]


@dataclass(frozen=True, slots=True)
class EclatConfig(MinerConfig):
    """Knobs of :func:`eclat` (see its docstring for semantics)."""

    minsup: float | int = 2
    max_size: int | None = None


@register
class EclatMiner(Miner):
    """Unified-API adapter over :func:`eclat`."""

    name = "eclat"
    summary = "depth-first complete mining over vertical tidset bitmasks"
    capabilities = Capabilities(complete=True)
    config_type = EclatConfig

    def mine(self, db: TransactionDatabase) -> MiningResult:
        return eclat(db, self.config.minsup, self.config.max_size)


def eclat(
    db: TransactionDatabase,
    minsup: float | int,
    max_size: int | None = None,
) -> MiningResult:
    """Mine all frequent itemsets depth-first (Eclat).

    Produces exactly the itemsets with support ``>= minsup`` and at most
    ``max_size`` items (the property tests check it against brute-force
    enumeration).
    """
    absolute = db.absolute_minsup(minsup)
    patterns: list[Pattern] = []
    with Stopwatch() as clock:
        items = [
            (item, db.item_tidset(item))
            for item in db.frequent_items(absolute)
        ]
        _descend((), items, absolute, max_size, patterns)
    return MiningResult(
        algorithm="eclat",
        minsup=absolute,
        patterns=patterns,
        elapsed_seconds=clock.elapsed,
    )


def _descend(
    prefix: tuple[int, ...],
    tail: list[tuple[int, int]],
    minsup: int,
    max_size: int | None,
    out: list[Pattern],
) -> None:
    """Recursively extend ``prefix`` with each item in ``tail``.

    ``tail`` holds (item, tidset-of-prefix∪{item}) pairs, already frequent.
    """
    for index, (item, tidset) in enumerate(tail):
        itemset = prefix + (item,)
        out.append(Pattern(items=frozenset(itemset), tidset=tidset))
        if max_size is not None and len(itemset) >= max_size:
            continue
        new_tail: list[tuple[int, int]] = []
        for other, other_tidset in tail[index + 1 :]:
            joined = tidset & other_tidset
            if joined.bit_count() >= minsup:
                new_tail.append((other, joined))
        if new_tail:
            _descend(itemset, new_tail, minsup, max_size, out)
