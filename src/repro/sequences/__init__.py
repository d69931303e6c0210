"""Sequential-pattern extension: Pattern-Fusion beyond itemsets (Section 8).

Fusion itself is the itemset loop, run with the sequence kind
(:data:`repro.core.kinds.SEQUENCES`).
"""

from repro.sequences.datasets import motif_sequences
from repro.sequences.fusion import (
    common_pattern_of_tidset,
    longest_common_subsequence,
    sequence_pattern_fusion,
)
from repro.sequences.prefixspan import prefixspan
from repro.sequences.results import SequenceMiningResult, SequencePattern
from repro.sequences.sequence_db import SequenceDatabase, is_subsequence

__all__ = [
    "SequenceDatabase",
    "SequencePattern",
    "SequenceMiningResult",
    "is_subsequence",
    "prefixspan",
    "sequence_pattern_fusion",
    "longest_common_subsequence",
    "common_pattern_of_tidset",
    "motif_sequences",
]
