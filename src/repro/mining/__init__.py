"""Frequent-pattern miners: the baselines and substrates the paper builds on.

All miners return :class:`repro.mining.results.MiningResult` over a shared
:class:`repro.mining.results.Pattern` type, so their outputs are directly
comparable (the test suite checks them against a brute-force enumerator).
"""

from repro.mining.closed import closed_patterns, iter_closed_patterns
from repro.mining.eclat import eclat
from repro.mining.levelwise import mine_up_to_size
from repro.mining.maximal import maximal_patterns
from repro.mining.results import MiningResult, Pattern, make_pattern
from repro.mining.topk import top_k_closed

__all__ = [
    "eclat",
    "closed_patterns",
    "iter_closed_patterns",
    "maximal_patterns",
    "top_k_closed",
    "mine_up_to_size",
    "MiningResult",
    "Pattern",
    "make_pattern",
]
