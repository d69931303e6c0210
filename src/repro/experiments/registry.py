"""Registry mapping experiment ids to their run functions and descriptions.

The CLI (``python -m repro experiment <id>``) and the benchmark harness both
dispatch through this table, so the set of reproducible artifacts is defined
in exactly one place.  The runners themselves resolve their miners through
the central miner registry (:data:`repro.api.registry.MINERS`) — the
experiment table names *artifacts*, the miner table names *algorithms*.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.experiments import (
    fig6_diag_runtime,
    fig7_diag_approx,
    fig8_replace_approx,
    fig9_all_comparison,
    fig10_all_runtime,
)
from repro.experiments.base import ExperimentResult

__all__ = ["ExperimentSpec", "REGISTRY", "run_experiment", "experiment_ids"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible paper artifact.

    ``run_parallel``, when set, is invoked with a worker count for
    ``jobs > 1`` requests; experiments without one simply run serially
    (their results are identical either way — the engine guarantees it).
    """

    experiment_id: str
    paper_artifact: str
    description: str
    run: Callable[[], ExperimentResult]
    run_parallel: Callable[[int], ExperimentResult] | None = None


REGISTRY: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig6",
            "Figure 6",
            "Run time on Diag_n: complete maximal mining vs Pattern-Fusion",
            lambda: fig6_diag_runtime.run(),
            run_parallel=lambda jobs: fig6_diag_runtime.run(jobs=jobs),
        ),
        ExperimentSpec(
            "fig7",
            "Figure 7",
            "Approximation error on Diag40: Pattern-Fusion vs uniform sampling",
            lambda: fig7_diag_approx.run(),
        ),
        ExperimentSpec(
            "fig8",
            "Figure 8",
            "Approximation error on Replace-sim per size threshold and K",
            lambda: fig8_replace_approx.run(),
        ),
        ExperimentSpec(
            "fig9",
            "Figure 9",
            "Per-size colossal recovery on ALL-sim vs the complete closed set",
            lambda: fig9_all_comparison.run(),
        ),
        ExperimentSpec(
            "fig10",
            "Figure 10",
            "Run time on ALL-sim vs decreasing support threshold",
            lambda: fig10_all_runtime.run(),
            run_parallel=lambda jobs: fig10_all_runtime.run(jobs=jobs),
        ),
    )
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    return list(REGISTRY)


def run_experiment(experiment_id: str, jobs: int = 1) -> ExperimentResult:
    """Run one registered experiment by id, optionally with worker processes."""
    try:
        spec = REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    if jobs > 1:
        if spec.run_parallel is not None:
            return spec.run_parallel(jobs)
        result = spec.run()
        result.note(
            f"--jobs {jobs} ignored: this experiment has no parallel surface"
        )
        return result
    return spec.run()
