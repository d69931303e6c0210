"""Figure 10 — run time on ALL as the support threshold decreases.

Sweeping the absolute threshold from 31 down to 21 on ALL-sim: the complete
miners (our LCM_maximal-style and TFP-style stand-ins) hit the sub-threshold
noise layers — the Diag-style explosion block's k-subsets have support
29 − k, so each threshold step unlocks another combinatorial tier — while
Pattern-Fusion's bounded-breadth pool keeps its runtime flat.  Baselines are
run under a timeout and report "did not finish" beyond it, matching the
paper's presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import get_miner_spec
from repro.datasets.microarray import all_like
from repro.engine import make_executor
from repro.experiments.base import ExperimentResult, timed

__all__ = ["Fig10Config", "run"]


@dataclass(frozen=True)
class Fig10Config:
    """Sweep parameters for the Figure 10 reproduction."""

    dataset_seed: int = 11
    minsups: tuple[int, ...] = (31, 29, 27, 25, 23, 21)
    baseline_timeout: float = 60.0
    topk_k: int = 500
    topk_min_size: int = 40
    k: int = 100
    tau: float = 0.97
    initial_pool_max_size: int = 2
    seed: int = 0


def run(config: Fig10Config | None = None, jobs: int = 1) -> ExperimentResult:
    """Reproduce Figure 10: runtime series for the three miners.

    ``jobs > 1`` fans the Pattern-Fusion rounds over worker processes; the
    mined pools are identical, only the timing column changes.
    """
    config = config or Fig10Config()
    # All three miners resolve through the central registry; the fusion
    # miner reuses one warm executor across the whole support sweep.
    maximal_spec = get_miner_spec("maximal")
    fusion_spec = get_miner_spec("pattern_fusion")
    executor = make_executor(jobs)
    db, _truth = all_like(seed=config.dataset_seed)
    result = ExperimentResult(
        experiment_id="fig10",
        title="Run time on ALL-sim vs minimum support",
        columns=(
            "minsup",
            "LCM_maximal-style (s)",
            "TFP-style top-k (s)",
            "Pattern-Fusion (s)",
        ),
    )
    try:
        for minsup in config.minsups:
            maximal_miner = maximal_spec.cls(
                minsup=minsup, max_seconds=config.baseline_timeout
            )
            maximal_outcome = timed(
                lambda miner=maximal_miner: miner.mine(db)
            )
            topk_outcome = timed(
                lambda m=minsup: _topk_at_floor(db, config, m)
            )
            fusion_miner = fusion_spec.cls(
                minsup=minsup,
                k=config.k,
                tau=config.tau,
                initial_pool_max_size=config.initial_pool_max_size,
                seed=config.seed + minsup,
                executor=executor,
            )
            fusion = fusion_miner.fuse(db)
            result.add_row(
                minsup,
                maximal_outcome.seconds,
                topk_outcome.seconds,
                fusion.elapsed_seconds,
            )
    finally:
        executor.close()
    result.note(
        f"baseline '-' entries exceeded the {config.baseline_timeout:.0f}s "
        "budget (paper: exponentially increasing run time)"
    )
    result.note("expected shape: baselines explode as minsup drops; PF levels off")
    if jobs > 1:
        result.note(f"Pattern-Fusion ran on {jobs} worker processes")
    return result


def _topk_at_floor(db, config: Fig10Config, minsup: int):
    """TFP run whose effort tracks the support axis.

    TFP has no minsup input — its effort is driven by k and the min pattern
    length.  To chart it against a minsup axis the way the paper does, each
    sweep point seeds the dynamic support bound at ``minsup``: the miner then
    enumerates (up to k of) the closed patterns above that support, so
    decreasing the threshold unlocks exactly the tiers that blow up the
    complete miners.
    """
    miner = get_miner_spec("topk").cls(
        k=config.topk_k,
        min_size=config.topk_min_size,
        initial_minsup=minsup,
        max_seconds=config.baseline_timeout,
    )
    return miner.mine(db)
