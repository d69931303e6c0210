"""Closed frequent-pattern mining (LCM/CHARM family).

Stand-in for FPClose [8] and the closed mode of LCM2 [18]: a depth-first
enumeration of closed itemsets using LCM's prefix-preserving closure
extension (ppc-extension), which visits every closed frequent itemset exactly
once with no duplicate detection table.

The search runs over LCM2's reduced database: the distinct transactions,
packed once as item-bit rows with their multiplicities as weights
(:meth:`TransactionDatabase.transaction_rows`).  A node of the search holds
its conditional database (the rows that contain its closed set, and their
weights), its closed set as item words and its candidate items, and answers
every candidate in a few NumPy calls: the support of ``closed ∪ {e}`` is the
weight of the rows holding ``e``, its closure the AND of those rows, and the
ppc test ``closure & below(e) & ~closed == 0``.  A child's candidates are its
parent's still-frequent candidates above ``e`` less its closure, which is
exact because support only falls along a branch.  Candidates are taken in
blocks that keep a node's temporaries near :data:`_NODE_WORDS` words, so a
wide database never materialises rows × candidates × words at once.

The complete closed set is what the paper's quality experiments compare
Pattern-Fusion against (Q in Definition 9), so this miner is the reference
oracle for E2/E3/E4.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from repro.api.base import Capabilities, Miner, MinerConfig
from repro.api.registry import register
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult, Pattern, Stopwatch

__all__ = ["closed_patterns", "iter_closed_patterns", "ClosedConfig", "ClosedMiner"]

#: A node takes its candidates in blocks of about this many words of
#: temporaries (1 MiB), whatever the database's size.
_NODE_WORDS = 1 << 17


@dataclass(frozen=True, slots=True)
class ClosedConfig(MinerConfig):
    """Knobs of :func:`closed_patterns` (see its docstring for semantics)."""

    minsup: float | int = 2
    max_patterns: int | None = None

    def __post_init__(self) -> None:
        if self.max_patterns is not None and self.max_patterns < 0:
            raise ValueError(f"max_patterns must be >= 0, got {self.max_patterns}")


@register
class ClosedMiner(Miner):
    """Unified-API adapter over :func:`closed_patterns`."""

    name = "closed"
    summary = "LCM-style ppc-extension enumeration of the closed set"
    capabilities = Capabilities(closed=True)
    config_type = ClosedConfig

    def mine(self, db: TransactionDatabase) -> MiningResult:
        return closed_patterns(db, self.config.minsup, self.config.max_patterns)


def closed_patterns(
    db: TransactionDatabase, minsup: float | int, max_patterns: int | None = None
) -> MiningResult:
    """Mine all closed frequent itemsets.

    Parameters
    ----------
    db:
        The transaction database.
    minsup:
        Relative (float in (0,1]) or absolute (int ≥ 1) minimum support.
    max_patterns:
        Optional safety valve: stop after this many closed patterns (0
        mines none; a negative cap is an error).  The paper's motivating
        scenario is precisely the one where the complete closed set
        explodes, and benchmarks use this cap to demonstrate the explosion
        without running forever.

    Returns
    -------
    MiningResult
        Every closed frequent itemset (of size ≥ 1), each with its tidset.
    """
    ClosedConfig(minsup, max_patterns)  # refuses a negative cap
    absolute = db.absolute_minsup(minsup)
    with Stopwatch() as clock:
        patterns = list(islice(iter_closed_patterns(db, absolute), max_patterns))
    return MiningResult(
        algorithm="closed", minsup=absolute, patterns=patterns, elapsed_seconds=clock.elapsed
    )


def iter_closed_patterns(db: TransactionDatabase, minsup: int) -> Iterator[Pattern]:
    """Yield closed frequent itemsets lazily (LCM ppc-extension order).

    Laziness matters for ``max_patterns`` and for the explosion benchmarks,
    which only need a prefix of the enumeration: a node is expanded only
    when the walk reaches it.  (The top-k miner in :mod:`repro.mining.topk`
    runs its own recursion, with a rising support bound.)
    """
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")
    if db.n_transactions < minsup:
        return
    import numpy as np

    rows, weights = db.transaction_rows()
    slots = np.arange(rows.shape[1] * 64)
    walk = (db, minsup, slots, slots >> 6, np.uint64(1) << (slots & 63).astype(np.uint64))
    root = np.bitwise_and.reduce(rows, axis=0)
    top = Pattern(db.closure_of_tidset(db.universe), db.universe)
    if top.items:
        yield top
    cand = np.array([i for i in db.frequent_items(minsup) if i not in top.items], dtype=np.intp)
    yield from _expand(walk, rows, weights, root, top, cand)


def _expand(walk, sub, wts, closed, node, cand):
    """The closed sets below ``node``, in ppc-extension order.

    ``sub``/``wts`` are the node's conditional database, ``closed`` its
    itemset as item words and ``cand`` its candidates (ascending ids);
    ``walk`` holds the database, the support floor, and each item's slot,
    word and bit.  (A module-level generator: a nested, self-recursive one
    would hold the database in a reference cycle until the collector ran.)
    """
    import numpy as np

    db, minsup, slots, word_of, bit_of = walk
    # A candidate's temporaries, in words: its rows' words, their ids and
    # ``has`` cast for the support count (3 a row), and a byte per item
    # slot in ``fresh`` and in ``outside`` (16 an item word).
    block = max(1, _NODE_WORDS // ((len(sub) + 16) * sub.shape[1] + 3 * len(sub)))
    for start in range(0, len(cand), block):
        c = cand[start:start + block]
        has = (sub[:, word_of[c]] & bit_of[c]) != 0
        frequent = (wts @ has >= minsup).nonzero()[0]
        if len(frequent) < len(c):
            c, has = c[frequent], has[:, frequent]
        col, row = has.T.nonzero()  # each candidate's rows, in turn
        closure = np.bitwise_and.reduceat(sub[row], col.searchsorted(slots[:len(c)]), axis=0)
        # The closure's items outside the closed set (every row holds the
        # closed set, so XOR drops it); e is the least of them iff the
        # extension preserves the prefix.
        fresh = np.unpackbits((closure ^ closed).view(np.uint8), axis=1, bitorder="little")
        passing = (fresh.argmax(axis=1) == c).nonzero()[0].tolist()
        if not passing:
            continue
        later = np.concatenate((c, cand[start + block:]))
        outside = fresh[:, later] == 0
        for j, e in zip(passing, c[passing].tolist()):
            new = fresh[j].nonzero()[0].tolist()
            child = Pattern(node.items.union(new), node.tidset & db.item_tidset(e))
            yield child
            below = later[j + 1:][outside[j, j + 1:]]
            if len(below):
                yield from _expand(walk, sub[has[:, j]], wts[has[:, j]], closure[j], child, below)
