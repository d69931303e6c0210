"""Pattern-Fusion for sequential patterns — the paper's Section 8 direction.

Support sets are bitsets over sequence ids, and Dist (Definition 6) and the
r(τ) ball bound (Theorem 2) never look inside the pattern, so sequences run
the itemset loop and round (:func:`sequence_pattern_fusion`).  Only the
merge differs: two subsequences have no unique smallest common
supersequence, so a fused support set is closed instead, to the greedy
longest-common-subsequence fold over its supporters
(:func:`common_pattern_of_tidset`), with that pattern's own support set.
Unlike the itemset closure, the fold is not maximal, and it need not
contain the seed: each pairwise LCS keeps one of many common subsequences
(multiple-sequence LCS is NP-hard).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.api.base import Capabilities, Miner, MinerConfig
from repro.api.registry import register
from repro.core.config import PatternFusionConfig
from repro.core.pattern_fusion import PatternFusionResult, pattern_fusion
from repro.db import bitset
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult
from repro.resilience.checkpoint import CheckpointManager
from repro.sequences.sequence_db import SequenceDatabase

__all__ = [
    "longest_common_subsequence",
    "common_pattern_of_tidset",
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


#: Pattern-Fusion over a :class:`SequenceDatabase`: the one loop, which
#: reads the sequence kind off the database.  ``config.close_fused`` must
#: stay True.
sequence_pattern_fusion = pattern_fusion


@dataclass(frozen=True, slots=True)
class SequenceFusionConfig(MinerConfig):
    """The knobs the fusion loop reads for sequences, plus ``minsup`` and
    ``jobs``, with :class:`PatternFusionConfig`'s defaults and validation."""

    # Pools are identical for every jobs value.
    EXECUTION_KNOBS = ("jobs",)

    minsup: float | int = 2
    jobs: int = 1
    k: int = 100
    tau: float = 0.5
    initial_pool_max_size: int = 3
    fusion_trials: int = 8
    max_candidates_per_seed: int = 5
    elitism: bool = True
    max_iterations: int = 50
    stagnation_rounds: int = 3
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.fusion_config()  # validates the algorithm knobs

    def fusion_config(self) -> PatternFusionConfig:
        """The algorithm-level config (drops ``minsup`` and ``jobs``)."""
        return PatternFusionConfig(**{
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name not in ("minsup", "jobs")
        })


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
    capabilities = Capabilities(colossal=True, parallel=True, sequences=True)
    config_type = SequenceFusionConfig

    def mine_sequences(
        self, db: SequenceDatabase | TransactionDatabase,
        checkpoint: CheckpointManager | None = None,
    ) -> PatternFusionResult:
        """Run on a sequence (or adapted transaction) database."""
        if isinstance(db, TransactionDatabase):
            db = SequenceDatabase(
                [sorted(row) for row in db.transactions], n_items=db.n_items
            )
        config: SequenceFusionConfig = self.config  # type: ignore[assignment]
        return pattern_fusion(
            db, config.minsup, config.fusion_config(),
            checkpoint=checkpoint, jobs=config.jobs,
        )

    def mine(
        self, db: SequenceDatabase | TransactionDatabase,
        checkpoint: CheckpointManager | None = None,
    ) -> MiningResult:
        result = self.mine_sequences(db, checkpoint).as_mining_result()
        result.algorithm = "sequence-fusion"
        return result
