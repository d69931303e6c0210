"""Pattern-Fusion for sequential patterns — the paper's Section 8 direction.

Everything distance-related transfers verbatim: support sets are bitsets
over sequence ids, Dist (Definition 6) and the r(τ) ball bound (Theorem 2)
never look inside the pattern.  The only itemset-specific ingredient of
fusion is the *merge*: itemsets fuse by union, but two subsequences have no
unique smallest common supersequence.  The sequential analogue used here is
the dual move, and it is exactly what the closure step already does for
itemsets: given the fused support set, take the **maximal pattern common to
all supporting sequences** — a greedy longest-common-subsequence fold over
the supporters.  Like the itemset closure, it is a function of the support
set alone and can only lengthen the pattern.

The algorithm below mirrors Algorithms 1 and 2: mine an initial pool of
short patterns, then repeatedly draw K seeds, collect each seed's r(τ) ball,
intersect ball members' support sets while the intersection stays frequent
and core-compatible, and emit the common-subsequence pattern of the fused
support set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.api.base import Capabilities, Miner
from repro.api.registry import register
from repro.core.config import PatternFusionConfig
from repro.core.distance import ball_radius, tidset_distance
from repro.core.fusion import GreedyBall
from repro.core.pattern_fusion import PatternFusionMinerConfig
from repro.db import bitset
from repro.db.transaction_db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.mining.results import MiningResult, Pattern
from repro.sequences.prefixspan import prefixspan
from repro.sequences.results import SequencePattern
from repro.sequences.sequence_db import SequenceDatabase

__all__ = [
    "longest_common_subsequence",
    "common_pattern_of_tidset",
    "SequenceFusionResult",
    "sequence_pattern_fusion",
    "SequenceFusionConfig",
    "SequenceFusionMiner",
]


def longest_common_subsequence(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, ...]:
    """Classic O(|a|·|b|) LCS on item sequences."""
    if not a or not b:
        return ()
    previous = [0] * (len(b) + 1)
    table = [previous]
    for i in range(1, len(a) + 1):
        current = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        table.append(current)
        previous = current
    # Backtrack.
    out: list[int] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return tuple(reversed(out))


def common_pattern_of_tidset(db: SequenceDatabase, tidset: int) -> tuple[int, ...]:
    """The greedy common subsequence of every sequence in ``tidset``.

    The sequential closure analogue: a pattern contained in every supporter,
    computed by folding LCS over the supporters.  Greedy multi-way LCS is
    not guaranteed maximal (multiple-sequence LCS is NP-hard), but it is
    always *sound*: the result embeds in every supporter, so its support set
    contains ``tidset``.
    """
    ids = bitset.bitset_to_ids(tidset)
    if not ids:
        return ()
    common = db.sequence(ids[0])
    for sid in ids[1:]:
        common = longest_common_subsequence(common, db.sequence(sid))
        if not common:
            return ()
    return common


@dataclass(slots=True)
class SequenceFusionResult:
    """Outcome of a sequential Pattern-Fusion run."""

    patterns: list[SequencePattern]
    config: PatternFusionConfig
    minsup: int
    initial_pool_size: int
    iterations: int
    elapsed_seconds: float = 0.0
    history: list[tuple[int, int]] = field(default_factory=list)
    """(pool size, min pattern length) per iteration — Lemma 5's series."""

    def __len__(self) -> int:
        return len(self.patterns)

    def largest(self, k: int = 1) -> list[SequencePattern]:
        ranked = sorted(
            self.patterns, key=lambda p: (-p.length, -p.support, p.sequence)
        )
        return ranked[:k]


def sequence_pattern_fusion(
    db: SequenceDatabase,
    minsup: float | int,
    config: PatternFusionConfig | None = None,
    initial_pool: list[SequencePattern] | None = None,
) -> SequenceFusionResult:
    """Run Pattern-Fusion over a sequence database.

    Accepts the same :class:`PatternFusionConfig` as the itemset algorithm;
    ``close_fused`` is implicit (the common-subsequence step *is* the
    closure analogue and is always applied).
    """
    config = config or PatternFusionConfig()
    absolute = db.absolute_minsup(minsup)
    rng = random.Random(config.seed)
    start = time.perf_counter()
    if initial_pool is None:
        pool_result = prefixspan(
            db, absolute, max_length=config.initial_pool_max_size
        )
        pool = pool_result.patterns
    else:
        pool = list(initial_pool)
    initial_size = len(pool)
    radius = ball_radius(config.tau)
    history: list[tuple[int, int]] = []
    iteration = 0
    while len(pool) > config.k and iteration < config.max_iterations:
        iteration += 1
        new_pool = _fusion_round(db, pool, radius, absolute, config, rng)
        if not new_pool:
            break
        if config.elitism:
            merged = {p.sequence: p for p in new_pool}
            elite = sorted(
                pool, key=lambda p: (-p.length, -p.support, p.sequence)
            )[: config.k]
            for p in elite:
                merged.setdefault(p.sequence, p)
            new_pool = list(merged.values())
        fixpoint = {p.sequence for p in new_pool} == {p.sequence for p in pool}
        pool = new_pool
        history.append((len(pool), min(p.length for p in pool)))
        if fixpoint:
            break
    if len(pool) > config.k:
        pool = sorted(
            pool, key=lambda p: (-p.length, -p.support, p.sequence)
        )[: config.k]
    return SequenceFusionResult(
        patterns=pool,
        config=config,
        minsup=absolute,
        initial_pool_size=initial_size,
        iterations=iteration,
        elapsed_seconds=time.perf_counter() - start,
        history=history,
    )


def _fusion_round(
    db: SequenceDatabase,
    pool: list[SequencePattern],
    radius: float,
    minsup: int,
    config: PatternFusionConfig,
    rng: random.Random,
) -> list[SequencePattern]:
    """One sequential Algorithm-2 round: seeds → balls → fused patterns.

    The greedy passes are the itemset driver's (:class:`GreedyBall`), with
    the same acceptance rule; their orders still come from ``rng.shuffle``.
    The seed stays in its own ball and in the shuffle: its tidset contains
    every running tidset and its support never exceeds the ceiling, so
    accepting it changes nothing.
    """
    n_seeds = min(config.k, len(pool))
    seeds = rng.sample(pool, k=n_seeds)
    fused_by_sequence: dict[tuple[int, ...], SequencePattern] = {}
    for seed in seeds:
        members = [
            p for p in pool if tidset_distance(seed.tidset, p.tidset) <= radius
        ]
        ball = GreedyBall(
            TidsetMatrix.from_tidsets(p.tidset for p in members),
            config.tau, minsup,
        )
        for _ in range(config.fusion_trials):
            order = list(range(len(members)))
            rng.shuffle(order)
            tidset, _, _ = ball.walk(order, seed.tidset, seed.support)
            sequence = common_pattern_of_tidset(db, tidset)
            if sequence and sequence not in fused_by_sequence:
                # The common pattern may be supported beyond the fused tidset.
                fused_by_sequence[sequence] = SequencePattern(
                    sequence=sequence, tidset=db.tidset(sequence)
                )
    return list(fused_by_sequence.values())


class SequenceFusionConfig(PatternFusionMinerConfig):
    """Sequence-fusion knobs: identical to the itemset driver's.

    ``close_fused`` is carried but implicit here — the common-subsequence
    step *is* the closure analogue and is always applied (see
    :func:`sequence_pattern_fusion`).
    """


@register
class SequenceFusionMiner(Miner):
    """Unified-API adapter over :func:`sequence_pattern_fusion`.

    Accepts a :class:`SequenceDatabase` directly; a
    :class:`~repro.db.transaction_db.TransactionDatabase` is adapted by
    reading each transaction as the ascending sequence of its items (the
    canonical itemset → sequence embedding), which is what makes the miner
    drivable from ``repro mine`` on FIMI inputs.

    :meth:`mine` projects the result onto the uniform
    :class:`~repro.mining.results.MiningResult` (a sequence becomes its item
    set; order — and nothing else — is dropped).  Use :meth:`mine_sequences`
    for the full ordered result.
    """

    name = "sequence_fusion"
    summary = "Pattern-Fusion over sequences (LCS-fold fusion, PrefixSpan pool)"
    capabilities = Capabilities(colossal=True, sequences=True)
    config_type = SequenceFusionConfig

    def mine_sequences(
        self, db: "SequenceDatabase | TransactionDatabase"
    ) -> SequenceFusionResult:
        """Run on a sequence (or adapted transaction) database."""
        if isinstance(db, TransactionDatabase):
            db = SequenceDatabase(
                [sorted(row) for row in db.transactions], n_items=db.n_items
            )
        config: SequenceFusionConfig = self.config  # type: ignore[assignment]
        return sequence_pattern_fusion(db, config.minsup, config.fusion_config())

    def mine(self, db: "SequenceDatabase | TransactionDatabase") -> MiningResult:
        result = self.mine_sequences(db)
        return MiningResult(
            algorithm="sequence-fusion",
            minsup=result.minsup,
            patterns=[
                Pattern(items=frozenset(p.sequence), tidset=p.tidset)
                for p in result.patterns
            ],
            elapsed_seconds=result.elapsed_seconds,
        )
