"""The paper's primary contribution: core patterns and Pattern-Fusion."""

from repro.core.ball_index import PatternBallIndex
from repro.core.config import PatternFusionConfig
from repro.core.estimate import core_descendant_hit_rate, estimate_robustness
from repro.core.core_pattern import (
    complementary_core_sets,
    core_patterns,
    core_ratio,
    is_core_descendant,
    is_core_pattern,
    robustness,
)
from repro.core.distance import ball, ball_radius, pattern_distance, tidset_distance
from repro.core.fusion import FusionCandidate, fuse_ball
from repro.core.pattern_fusion import (
    IterationStats,
    PatternFusion,
    PatternFusionResult,
    pattern_fusion,
)
from repro.core.pool import Pool

__all__ = [
    "PatternFusionConfig",
    "pattern_fusion",
    "PatternFusion",
    "PatternFusionResult",
    "IterationStats",
    "pattern_distance",
    "tidset_distance",
    "ball",
    "ball_radius",
    "is_core_pattern",
    "core_ratio",
    "core_patterns",
    "robustness",
    "is_core_descendant",
    "complementary_core_sets",
    "fuse_ball",
    "FusionCandidate",
    "PatternBallIndex",
    "Pool",
    "estimate_robustness",
    "core_descendant_hit_rate",
]
