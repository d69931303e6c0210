"""Tests for the sampling estimators of robustness and core-descendant hit rate."""

import random

import pytest

from repro.core.core_pattern import robustness
from repro.core.estimate import core_descendant_hit_rate, estimate_robustness
from repro.db import TransactionDatabase
from tests.conftest import A, B, C, E, F


class TestEstimateRobustness:
    def test_matches_exhaustive_on_figure3(self, figure3_db):
        abcef = frozenset([A, B, C, E, F])
        exact = robustness(figure3_db, abcef, tau=0.5)
        estimated = estimate_robustness(
            figure3_db, abcef, tau=0.5, rng=random.Random(0),
            samples_per_level=128,
        )
        assert estimated == exact == 4

    def test_never_exceeds_exhaustive(self, figure3_db):
        for items in ([A, B, E], [B, C, F], [A, B, C, E, F]):
            alpha = frozenset(items)
            exact = robustness(figure3_db, alpha, tau=0.6)
            estimated = estimate_robustness(
                figure3_db, alpha, tau=0.6, rng=random.Random(1)
            )
            assert estimated <= exact

    def test_block_pattern_fully_robust(self):
        db = TransactionDatabase([[0, 1, 2, 3]] * 10, n_items=4)
        alpha = frozenset(range(4))
        # Any removal keeps the same support set: d = |alpha|.
        assert estimate_robustness(db, alpha, tau=1.0) == 4

    def test_zero_support_rejected(self):
        db = TransactionDatabase([[0], [1]], n_items=2)
        with pytest.raises(ValueError):
            estimate_robustness(db, frozenset([0, 1]), tau=0.5)


class TestHitRate:
    def test_observation1_figure3(self, figure3_db):
        """Observation 1's worked number: drawing a size-2 pattern hits a
        core descendant of the colossal (abcef) with probability 0.9."""
        abcef = frozenset([A, B, C, E, F])
        rate = core_descendant_hit_rate(
            figure3_db, abcef, size=2, tau=0.5,
            rng=random.Random(0), samples=4000,
        )
        assert rate == pytest.approx(0.9, abs=0.03)

    def test_smaller_patterns_hit_less(self, figure3_db):
        """…while the small patterns' rates are at most 0.3."""
        for items in ([A, B, E], [B, C, F], [A, C, F]):
            # Paper semantics: compare against the colossal one at the same
            # draw size; small patterns cover fewer pairs.
            rate = core_descendant_hit_rate(
                figure3_db, frozenset(items), size=2, tau=0.5,
                rng=random.Random(1), samples=4000,
            )
            assert rate <= 0.35

    def test_validation(self, figure3_db):
        with pytest.raises(ValueError):
            core_descendant_hit_rate(figure3_db, frozenset([A]), size=0, tau=0.5)
