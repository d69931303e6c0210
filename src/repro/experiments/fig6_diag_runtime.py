"""Figure 6 — run time on Diag_n: complete maximal mining vs Pattern-Fusion.

The paper sweeps the matrix size n (5…45) at threshold n/2 and shows
LCM_maximal's runtime exploding as C(n, n/2) while Pattern-Fusion levels off.
Our maximal miner is a pure-Python GenMax-family implementation, so its
explosion arrives at smaller n than a 2007 C binary's — the *shape* (straight
line on a log axis for the complete miner, flat for Pattern-Fusion) is the
reproduction target, and each baseline point is capped by a timeout exactly
as the paper caps at "cannot finish".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import get_miner_spec
from repro.datasets.diag import diag, diag_default_minsup, diag_n_maximal_patterns
from repro.engine import make_executor
from repro.experiments.base import ExperimentResult, timed

__all__ = ["Fig6Config", "run"]


@dataclass(frozen=True)
class Fig6Config:
    """Sweep sizes and budgets for the Figure 6 reproduction."""

    baseline_sizes: tuple[int, ...] = (6, 8, 10, 12, 14)
    fusion_sizes: tuple[int, ...] = (6, 8, 10, 12, 14, 20, 30, 40)
    baseline_timeout: float = 60.0
    k: int = 10
    tau: float = 0.5
    seed: int = 0
    fusion_pool_max_size: int = 2
    extra_notes: tuple[str, ...] = field(default_factory=tuple)


def run(config: Fig6Config | None = None, jobs: int = 1) -> ExperimentResult:
    """Reproduce Figure 6: per-n run times for both miners.

    ``jobs > 1`` fans the Pattern-Fusion rounds over worker processes; the
    mined pools are identical, only the timing column changes.
    """
    config = config or Fig6Config()
    # Both miners resolve through the central registry; the fusion miner is
    # handed a warm executor so every sweep point reuses one worker pool.
    maximal_spec = get_miner_spec("maximal")
    fusion_spec = get_miner_spec("pattern_fusion")
    executor = make_executor(jobs)
    result = ExperimentResult(
        experiment_id="fig6",
        title="Run time on Diag_n (minsup n/2)",
        columns=(
            "n",
            "maximal count",
            "LCM_maximal-style (s)",
            "Pattern-Fusion (s)",
            "PF largest size",
        ),
    )
    baseline_times: dict[int, float | None] = {}
    if config.baseline_sizes:
        # One untimed call first: the process's first mining call also
        # imports NumPy, which would inflate the smallest timed point.
        n = config.baseline_sizes[0]
        maximal_spec.cls(
            minsup=diag_default_minsup(n), max_seconds=config.baseline_timeout
        ).mine(diag(n))
    for n in config.baseline_sizes:
        minsup = diag_default_minsup(n)
        db = diag(n)
        miner = maximal_spec.cls(
            minsup=minsup, max_seconds=config.baseline_timeout
        )
        outcome = timed(
            lambda db=db, miner=miner: miner.mine(db),
            config.baseline_timeout,
        )
        baseline_times[n] = outcome.seconds
    fusion_times: dict[int, tuple[float, int]] = {}
    try:
        for n in config.fusion_sizes:
            minsup = diag_default_minsup(n)
            db = diag(n)
            fusion_miner = fusion_spec.cls(
                minsup=minsup,
                k=config.k,
                tau=config.tau,
                initial_pool_max_size=config.fusion_pool_max_size,
                seed=config.seed,
                executor=executor,
            )
            fusion = fusion_miner.fuse(db)
            largest = fusion.largest(1)[0].size if fusion.patterns else 0
            fusion_times[n] = (fusion.elapsed_seconds, largest)
    finally:
        executor.close()
    for n in sorted(set(config.baseline_sizes) | set(config.fusion_sizes)):
        fusion_entry = fusion_times.get(n)
        result.add_row(
            n,
            diag_n_maximal_patterns(n, diag_default_minsup(n)),
            baseline_times.get(n),
            fusion_entry[0] if fusion_entry else None,
            fusion_entry[1] if fusion_entry else None,
        )
    result.note(
        "baseline '-' entries exceeded the "
        f"{config.baseline_timeout:.0f}s budget (paper: 'cannot finish')"
    )
    result.note(
        "expected shape: baseline grows ~C(n, n/2); Pattern-Fusion stays flat"
    )
    if jobs > 1:
        result.note(f"Pattern-Fusion ran on {jobs} worker processes")
    for note in config.extra_notes:
        result.note(note)
    return result
