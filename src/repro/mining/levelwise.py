"""Bounded-size complete mining — Pattern-Fusion's initial pool.

The paper's phase 1 ("Initial Pool") needs *the complete set of frequent
patterns up to a small size*, e.g. ≤ 3, minable "with any existing efficient
mining algorithm".  :func:`mine_pool` is that step, mined level by level
over packed tidset words and returned as a columnar
:class:`~repro.core.pool.Pool`:

* level 1 is the frequent items' rows of the database's item matrix;
* level ``k + 1`` joins every pair of level-``k`` siblings (rows that share
  their first ``k − 1`` items) with a vector AND and popcount, keeping the
  joins that reach minsup.  The pairs are taken in blocks, so no
  temporary exceeds :data:`_BLOCK_WORDS` words;
* a ``lexsort`` over the −1-padded item columns puts the rows in the order
  a depth-first Eclat traversal emits them (a prefix before its
  extensions, siblings by ascending item).

The pool equals :func:`repro.mining.eclat.eclat` capped at the same size,
pattern for pattern and in the same order, which Pattern-Fusion's seed
draws rely on.  :func:`mine_up_to_size` returns the same patterns as a
:class:`~repro.mining.results.MiningResult`, and the module keeps the
pool-size bookkeeping the experiments report (e.g. Diag40's "initial pool
of 820 patterns of size ≤ 2").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.base import Capabilities, Miner, MinerConfig
from repro.api.registry import register
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult, Stopwatch

if TYPE_CHECKING:  # repro.core imports this module; keep the cycle lazy
    from repro.core.pool import Pool

__all__ = [
    "mine_pool",
    "mine_up_to_size",
    "expected_pool_size_upper_bound",
    "LevelwiseConfig",
    "LevelwiseMiner",
]

#: Largest AND temporary of one join block, in uint64 words (2 MiB).
_BLOCK_WORDS = 1 << 18


@dataclass(frozen=True, slots=True)
class LevelwiseConfig(MinerConfig):
    """Knobs of :func:`mine_up_to_size` (the phase-1 pool miner)."""

    minsup: float | int = 2
    max_size: int = 3


@register
class LevelwiseMiner(Miner):
    """Unified-API adapter over :func:`mine_up_to_size`."""

    name = "levelwise"
    summary = "complete mining capped at a pattern size (phase-1 pool)"
    capabilities = Capabilities(complete=True)
    config_type = LevelwiseConfig

    def mine(self, db: TransactionDatabase) -> MiningResult:
        return mine_up_to_size(db, self.config.minsup, self.config.max_size)


def mine_pool(
    db: TransactionDatabase, minsup: float | int, max_size: int
) -> "Pool":
    """All frequent patterns α with 1 ≤ |α| ≤ ``max_size``, as a pool.

    Rows are in Eclat's depth-first order.  This is the complete answer
    for the bounded lattice prefix, so it is safe to use both as
    Pattern-Fusion's initial pool and as ground truth in tests.
    """
    import numpy as np

    from repro.core.pool import Pool
    from repro.kernels import TidsetMatrix
    from repro.kernels.matrix import word_popcounts

    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    absolute = db.absolute_minsup(minsup)
    matrix = db.item_matrix()
    supports = matrix.row_popcounts
    frequent = np.flatnonzero(supports >= absolute)
    items = frequent[:, np.newaxis]
    words = matrix.words[frequent]
    supports = supports[frequent]
    # Row i's siblings are the rows after it up to ends[i]; level 1 is one
    # family (the empty prefix).
    ends = np.full(len(frequent), len(frequent))
    levels = [(items, words, supports)]
    block = max(1, _BLOCK_WORDS // words.shape[1])
    while len(levels) < max_size:
        later = ends - np.arange(len(items)) - 1
        stops = np.cumsum(later)
        pairs = int(stops[-1]) if len(stops) else 0
        parts = []
        for start in range(0, pairs, block):
            pair = np.arange(start, min(pairs, start + block))
            left = np.searchsorted(stops, pair, side="right")
            right = left + 1 + pair - (stops[left] - later[left])
            counts = word_popcounts(words[left] & words[right])
            keep = counts >= absolute
            parts.append((left[keep], right[keep], counts[keep]))
        if not parts or not any(len(part[0]) for part in parts):
            break
        parents, partners, supports = (np.concatenate(c) for c in zip(*parts))
        # The kept pairs are ANDed again, block by block, straight into the
        # next level's words: the level is never held twice, as per-block
        # pieces and as their concatenation.
        joined = np.empty((len(parents), words.shape[1]), dtype=np.uint64)
        for start in range(0, len(parents), block):
            part = slice(start, start + block)
            np.bitwise_and(
                words[parents[part]], words[partners[part]], out=joined[part]
            )
        items = np.hstack([items[parents], items[partners, -1:]])
        words = joined
        # Rows made from one left row share their prefix.
        ends = np.searchsorted(parents, parents, side="right")
        levels.append((items, words, supports))
    width = len(levels)
    items = np.concatenate([
        np.pad(level[0], ((0, 0), (0, width - level[0].shape[1])),
               constant_values=-1)
        for level in levels
    ])
    order = np.lexsort(items.T[::-1])
    supports = np.concatenate([level[2] for level in levels])[order]
    # Each level's words are scattered to their rows and then dropped, so
    # the ordered words are the only full copy.
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    words = np.empty((len(order), levels[0][1].shape[1]), dtype=np.uint64)
    start = 0
    while levels:
        level_words = levels.pop(0)[1]
        words[rank[start:start + len(level_words)]] = level_words
        start += len(level_words)
    return Pool(
        TidsetMatrix.from_words_buffer(words, len(order), db.n_transactions),
        items[order],
        supports,
    )


def mine_up_to_size(
    db: TransactionDatabase,
    minsup: float | int,
    max_size: int,
) -> MiningResult:
    """:func:`mine_pool` as a miner result: the same patterns, in a list."""
    with Stopwatch() as clock:
        patterns = list(mine_pool(db, minsup, max_size))
    return MiningResult(
        algorithm=f"levelwise(<= {max_size})",
        minsup=db.absolute_minsup(minsup),
        patterns=patterns,
        elapsed_seconds=clock.elapsed,
    )


def expected_pool_size_upper_bound(n_items: int, max_size: int) -> int:
    """Number of itemsets of size ≤ ``max_size`` over ``n_items`` items.

    The loose upper bound sum_{k=1..L} C(n, k); the paper quotes the exact
    value for Diag40 (820 patterns of size ≤ 2) where every such itemset is
    frequent, so the bound is tight there.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    total = 0
    binomial = 1
    for k in range(1, max_size + 1):
        binomial = binomial * (n_items - k + 1) // k
        if binomial <= 0:
            break
        total += binomial
    return total
