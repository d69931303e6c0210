"""Configuration for the Pattern-Fusion algorithm.

One frozen dataclass holds every knob with the paper's symbol (where it has
one), its default, and its validation — so an invalid run fails at
construction time, not three iterations into a mining loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["PatternFusionConfig"]


@dataclass(frozen=True, slots=True)
class PatternFusionConfig:
    """Parameters of Algorithms 1 and 2.

    Attributes
    ----------
    k:
        ``K`` — the maximum number of patterns to mine; also the number of
        seeds drawn per iteration.
    tau:
        ``τ`` ∈ (0, 1] — the core ratio (Definition 3).  Determines the ball
        radius ``r(τ)`` used to collect each seed's CoreList.  The default
        0.5 is the value of the paper's worked examples (Figure 3); it gives
        fusion its signature one-step leaps — a fused pattern may keep as
        little as half of its constituents' support.  Values near 1 shrink
        both the balls and the per-step support drop, degrading fusion
        toward single-item growth (ablation A3 sweeps this).
    initial_pool_max_size:
        Pattern-size cap ``L`` of the initial pool (phase 1 mines the complete
        set of frequent patterns with |α| ≤ L).
    fusion_trials:
        Number of random greedy fusion passes per seed ball.  Each pass
        fuses a maximal sub-collection of the ball that stays frequent and
        core-compatible, yielding one candidate super-pattern.
    max_candidates_per_seed:
        The "threshold determined by the system" of Section 4: when one seed
        ball yields more distinct super-patterns than this, a size-weighted
        sample of this many is retained.
    close_fused:
        When True (default), every fused pattern is extended to its closure.
        Closure preserves the support set, so core-ratio relationships are
        untouched; it only makes the leap down the lattice longer.  Flag kept
        for the A1 ablation.
    elitism:
        When True (default), the new pool additionally carries over the ``k``
        largest patterns of the previous pool.  The paper's pool consists of
        fused outputs only, so a colossal pattern that is found but not
        re-drawn as a seed in a later iteration can vanish again (its
        survival probability is K/|S| per iteration — the mechanism Lemma 5
        relies on to *kill small patterns* also applies to large ones).
        Size-elitism keeps the kill-small behaviour while making recovery of
        found colossal patterns monotone.  Implementation safeguard beyond
        the paper; ablation A5 quantifies it.
    max_iterations:
        Hard stop for the outer loop of Algorithm 1.  Lemma 5 argues
        termination, but a guard costs nothing and bounds worst-case runs.
    stagnation_rounds:
        Stop when the pool's pattern-size histogram is unchanged for this
        many consecutive iterations — the pool has saturated (every fusion
        reproduces patterns of the same sizes), so further rounds only
        reshuffle equivalent answers.
    seed:
        Seed for the random draws; runs are deterministic given a seed.
    """

    k: int = 100
    tau: float = 0.5
    initial_pool_max_size: int = 3
    fusion_trials: int = 8
    max_candidates_per_seed: int = 5
    close_fused: bool = True
    elitism: bool = True
    max_iterations: int = 50
    stagnation_rounds: int = 3
    seed: int | None = None

    def reseeded(self, seed: int | None) -> "PatternFusionConfig":
        """This configuration with only ``seed`` replaced.

        The streaming driver's per-slide RNG schedule runs Algorithm 2 with a
        fresh seed each window slide while every other knob stays pinned;
        this helper keeps that derivation in one audited place.
        """
        return replace(self, seed=seed)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.initial_pool_max_size < 1:
            raise ValueError(
                "initial_pool_max_size must be >= 1, "
                f"got {self.initial_pool_max_size}"
            )
        if self.fusion_trials < 1:
            raise ValueError(f"fusion_trials must be >= 1, got {self.fusion_trials}")
        if self.max_candidates_per_seed < 1:
            raise ValueError(
                "max_candidates_per_seed must be >= 1, "
                f"got {self.max_candidates_per_seed}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.stagnation_rounds < 1:
            raise ValueError(
                f"stagnation_rounds must be >= 1, got {self.stagnation_rounds}"
            )
